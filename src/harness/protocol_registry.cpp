#include "harness/protocol_registry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "flood/flood_router.h"
#include "maodv/maodv_router.h"
#include "odmrp/odmrp_router.h"

namespace ag::harness {

namespace {

std::unique_ptr<MulticastRouter> make_maodv(const RouterContext& ctx) {
  return std::make_unique<maodv::MaodvRouter>(ctx.sim, ctx.mac, ctx.id,
                                              ctx.sim.rng().stream("aodv", ctx.index));
}

std::unique_ptr<MulticastRouter> make_odmrp(const RouterContext& ctx) {
  return std::make_unique<odmrp::OdmrpRouter>(ctx.sim, ctx.mac, ctx.id,
                                              ctx.sim.rng().stream("aodv", ctx.index));
}

std::unique_ptr<MulticastRouter> make_flood(const RouterContext& ctx) {
  return std::make_unique<flood::FloodRouter>(ctx.mac, ctx.id);
}

std::unique_ptr<MulticastRouter> make_flood_gossip(const RouterContext& ctx) {
  return std::make_unique<flood::FloodRouter>(ctx.mac, ctx.id, /*gossip_links=*/true);
}

}  // namespace

ProtocolRegistry::ProtocolRegistry() {
  add({Protocol::maodv, "maodv", /*gossip_capable=*/false, make_maodv});
  add({Protocol::maodv_gossip, "maodv_gossip", /*gossip_capable=*/true,
       make_maodv});
  add({Protocol::flooding, "flooding", /*gossip_capable=*/false, make_flood});
  add({Protocol::odmrp, "odmrp", /*gossip_capable=*/false, make_odmrp});
  add({Protocol::odmrp_gossip, "odmrp_gossip", /*gossip_capable=*/true,
       make_odmrp});
  add({Protocol::flooding_gossip, "flooding_gossip", /*gossip_capable=*/true,
       make_flood_gossip, /*core=*/false});
}

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;
  return registry;
}

void ProtocolRegistry::add(ProtocolEntry entry) {
  for (ProtocolEntry& e : entries_) {
    if (e.protocol == entry.protocol) {
      e = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

const ProtocolEntry& ProtocolRegistry::entry(Protocol p) const {
  for (const ProtocolEntry& e : entries_) {
    if (e.protocol == p) return e;
  }
  throw std::out_of_range("unregistered Protocol enum value " +
                          std::to_string(static_cast<int>(p)));
}

const ProtocolEntry* ProtocolRegistry::find(std::string_view name) const {
  for (const ProtocolEntry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string ProtocolRegistry::known_names() const {
  std::string known;
  for (const ProtocolEntry& e : entries_) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  return known;
}

Protocol ProtocolRegistry::parse(std::string_view name) const {
  if (const ProtocolEntry* e = find(name)) return e->protocol;
  throw std::invalid_argument("unknown protocol \"" + std::string(name) +
                              "\" (known: " + known_names() + ")");
}

std::vector<Protocol> ProtocolRegistry::parse_list(std::string_view names) const {
  std::vector<Protocol> out;
  std::size_t start = 0;
  while (start <= names.size()) {
    const std::size_t comma = names.find(',', start);
    const std::string_view name =
        names.substr(start, comma == std::string_view::npos ? comma : comma - start);
    if (!name.empty()) {
      const Protocol p = parse(name);
      if (std::find(out.begin(), out.end(), p) != out.end()) {
        throw std::invalid_argument("protocol \"" + std::string(name) +
                                    "\" is listed twice");
      }
      out.push_back(p);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("empty protocol list (known: " + known_names() + ")");
  }
  return out;
}

const std::string& ProtocolRegistry::name_of(Protocol p) const {
  return entry(p).name;
}

std::vector<Protocol> ProtocolRegistry::all() const {
  std::vector<Protocol> out;
  out.reserve(entries_.size());
  for (const ProtocolEntry& e : entries_) {
    if (e.core) out.push_back(e.protocol);
  }
  return out;
}

std::unique_ptr<MulticastRouter> ProtocolRegistry::build(
    const RouterContext& ctx) const {
  return entry(ctx.config.protocol).factory(ctx);
}

}  // namespace ag::harness
