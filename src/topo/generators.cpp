#include "topo/generators.hpp"

#include <stdexcept>

namespace attain::topo {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Enterprise: return "enterprise";
    case TopologyKind::FatTree: return "fat-tree";
    case TopologyKind::LeafSpine: return "leaf-spine";
  }
  return "?";
}

TopologySpec TopologySpec::enterprise() { return TopologySpec{}; }

TopologySpec TopologySpec::fat_tree(std::uint32_t k) {
  TopologySpec spec;
  spec.kind = TopologyKind::FatTree;
  spec.k = k;
  spec.check();
  return spec;
}

TopologySpec TopologySpec::leaf_spine(std::uint32_t spines, std::uint32_t leaves,
                                      std::uint32_t hosts_per_leaf) {
  TopologySpec spec;
  spec.kind = TopologyKind::LeafSpine;
  spec.spines = spines;
  spec.leaves = leaves;
  spec.hosts_per_leaf = hosts_per_leaf;
  spec.check();
  return spec;
}

void TopologySpec::check() const {
  switch (kind) {
    case TopologyKind::Enterprise: return;
    case TopologyKind::FatTree:
      if (k < 2 || k > 64 || k % 2 != 0) {
        throw std::invalid_argument("fat-tree arity k must be even and in [2, 64], got " +
                                    std::to_string(k));
      }
      return;
    case TopologyKind::LeafSpine:
      if (spines == 0 || leaves == 0 || hosts_per_leaf == 0) {
        throw std::invalid_argument("leaf-spine axes must all be >= 1");
      }
      if (static_cast<std::uint64_t>(leaves) * hosts_per_leaf < 2) {
        throw std::invalid_argument("leaf-spine needs at least two hosts (|H| >= 2)");
      }
      // Port numbers are uint16 and host addresses pack into 32 bits.
      if (spines > 4096 || leaves > 4096 ||
          static_cast<std::uint64_t>(spines) + hosts_per_leaf > 65535 ||
          static_cast<std::uint64_t>(leaves) * hosts_per_leaf > (1u << 24) - 2) {
        throw std::invalid_argument("leaf-spine shape exceeds addressing limits");
      }
      return;
  }
  throw std::invalid_argument("bad topology kind");
}

std::size_t TopologySpec::switch_count() const {
  switch (kind) {
    case TopologyKind::Enterprise: return 4;
    case TopologyKind::FatTree: {
      const std::size_t half = k / 2;
      return half * half + static_cast<std::size_t>(k) * k;  // cores + k pods x k switches
    }
    case TopologyKind::LeafSpine: return static_cast<std::size_t>(spines) + leaves;
  }
  return 0;
}

std::size_t TopologySpec::host_count() const {
  switch (kind) {
    case TopologyKind::Enterprise: return 6;
    case TopologyKind::FatTree: return static_cast<std::size_t>(k) * k * k / 4;
    case TopologyKind::LeafSpine: return static_cast<std::size_t>(leaves) * hosts_per_leaf;
  }
  return 0;
}

std::size_t TopologySpec::link_count() const {
  switch (kind) {
    case TopologyKind::Enterprise: return 9;
    case TopologyKind::FatTree: return 3 * (static_cast<std::size_t>(k) * k * k / 4);
    case TopologyKind::LeafSpine:
      return static_cast<std::size_t>(spines) * leaves +
             static_cast<std::size_t>(leaves) * hosts_per_leaf;
  }
  return 0;
}

std::string TopologySpec::id() const {
  switch (kind) {
    case TopologyKind::Enterprise: return "enterprise";
    case TopologyKind::FatTree: return "fat-tree/k" + std::to_string(k);
    case TopologyKind::LeafSpine:
      return "leaf-spine/" + std::to_string(spines) + "x" + std::to_string(leaves) + "x" +
             std::to_string(hosts_per_leaf);
  }
  return "?";
}

void TopologySpec::write_json(JsonWriter& out) const {
  out.begin_object();
  out.field("kind", to_string(kind));
  switch (kind) {
    case TopologyKind::Enterprise: break;
    case TopologyKind::FatTree: out.field("k", static_cast<std::uint64_t>(k)); break;
    case TopologyKind::LeafSpine:
      out.field("spines", static_cast<std::uint64_t>(spines));
      out.field("leaves", static_cast<std::uint64_t>(leaves));
      out.field("hosts_per_leaf", static_cast<std::uint64_t>(hosts_per_leaf));
      break;
  }
  out.end_object();
}

namespace {

// The Fig. 8 enterprise net, moved here verbatim from scenario/enterprise.cpp
// so scenario::make_enterprise_model() and build_model(enterprise()) are one
// code path. The chokepoint switch is s2 (the DMZ firewall).
SystemModel build_enterprise(const BuildOptions& options) {
  SystemModel model;

  const EntityId c1 = model.add_controller(
      ControllerSpec{"c1", pkt::Ipv4Address::parse("10.0.100.1"), 6633});

  auto add_switch = [&](const std::string& name, std::uint64_t dpid, bool fail_secure) {
    SwitchSpec spec;
    spec.name = name;
    spec.dpid = dpid;
    spec.num_ports = 4;
    spec.fail_secure = fail_secure;
    return model.add_switch(std::move(spec));
  };
  const EntityId s1 = add_switch("s1", 1, options.others_fail_secure);
  const EntityId s2 = add_switch("s2", 2, options.chokepoint_fail_secure);
  const EntityId s3 = add_switch("s3", 3, options.others_fail_secure);
  const EntityId s4 = add_switch("s4", 4, options.others_fail_secure);

  auto add_host = [&](const std::string& name, unsigned n) {
    HostSpec spec;
    spec.name = name;
    spec.mac = pkt::MacAddress::from_u64(n);
    spec.ip = pkt::Ipv4Address::parse("10.0.0." + std::to_string(n));
    return model.add_host(std::move(spec));
  };
  const EntityId h1 = add_host("h1", 1);
  const EntityId h2 = add_host("h2", 2);
  const EntityId h3 = add_host("h3", 3);
  const EntityId h4 = add_host("h4", 4);
  const EntityId h5 = add_host("h5", 5);
  const EntityId h6 = add_host("h6", 6);

  model.add_link(h1, std::nullopt, s1, 1);
  model.add_link(h2, std::nullopt, s1, 2);
  model.add_link(s1, 3, s2, 1);
  model.add_link(s2, 2, s3, 1);
  model.add_link(h3, std::nullopt, s3, 2);
  model.add_link(h4, std::nullopt, s3, 3);
  model.add_link(s3, 4, s4, 1);
  model.add_link(h5, std::nullopt, s4, 2);
  model.add_link(h6, std::nullopt, s4, 3);

  for (const EntityId sw : {s1, s2, s3, s4}) {
    model.add_control_connection(c1, sw, options.tls);
  }
  return model;
}

// Canonical k-ary fat-tree (Al-Fares et al.): (k/2)^2 core switches, k pods
// of k/2 aggregation + k/2 edge switches, k/2 hosts per edge switch. Every
// switch has exactly k ports. Deterministic naming and dpid layout:
//   core cs{c}      dpid (1<<24) | (c+1)
//   agg  as{p}_{a}  dpid (2<<24) | (p<<12) | (a+1)
//   edge es{p}_{e}  dpid (3<<24) | (p<<12) | (e+1)
//   host h{p}_{e}_{j}  ip 10.p.e.(j+2), mac = from_u64(ip)
SystemModel build_fat_tree(std::uint32_t k, const BuildOptions& options) {
  const std::uint32_t half = k / 2;
  SystemModel model;
  const EntityId c1 = model.add_controller(
      ControllerSpec{"c1", pkt::Ipv4Address::parse("10.0.100.1"), 6633});

  auto add_switch = [&](std::string name, std::uint64_t dpid, bool fail_secure) {
    SwitchSpec spec;
    spec.name = std::move(name);
    spec.dpid = dpid;
    spec.num_ports = static_cast<std::uint16_t>(k);
    spec.fail_secure = fail_secure;
    return model.add_switch(std::move(spec));
  };

  std::vector<EntityId> cores;
  cores.reserve(static_cast<std::size_t>(half) * half);
  for (std::uint32_t c = 0; c < half * half; ++c) {
    const bool secure = (c == 0) ? options.chokepoint_fail_secure : options.others_fail_secure;
    cores.push_back(add_switch("cs" + std::to_string(c), (1ull << 24) | (c + 1), secure));
  }

  std::vector<std::vector<EntityId>> aggs(k), edges(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t a = 0; a < half; ++a) {
      aggs[p].push_back(add_switch("as" + std::to_string(p) + "_" + std::to_string(a),
                                   (2ull << 24) | (static_cast<std::uint64_t>(p) << 12) | (a + 1),
                                   options.others_fail_secure));
    }
    for (std::uint32_t e = 0; e < half; ++e) {
      edges[p].push_back(add_switch("es" + std::to_string(p) + "_" + std::to_string(e),
                                    (3ull << 24) | (static_cast<std::uint64_t>(p) << 12) | (e + 1),
                                    options.others_fail_secure));
    }
  }

  // Hosts: edge switch (p, e) serves ports 1..k/2 with hosts h{p}_{e}_{j}.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t j = 0; j < half; ++j) {
        const std::uint32_t ip =
            (10u << 24) | (p << 16) | (e << 8) | (j + 2);
        HostSpec spec;
        spec.name = "h" + std::to_string(p) + "_" + std::to_string(e) + "_" + std::to_string(j);
        spec.ip = pkt::Ipv4Address{ip};
        spec.mac = pkt::MacAddress::from_u64(ip);
        const EntityId host = model.add_host(std::move(spec));
        model.add_link(host, std::nullopt, edges[p][e], static_cast<std::uint16_t>(j + 1));
      }
    }
  }

  // Edge uplinks: edge (p, e) port k/2+a+1 <-> agg (p, a) port e+1.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t e = 0; e < half; ++e) {
      for (std::uint32_t a = 0; a < half; ++a) {
        model.add_link(edges[p][e], static_cast<std::uint16_t>(half + a + 1), aggs[p][a],
                       static_cast<std::uint16_t>(e + 1));
      }
    }
  }

  // Core links: agg (p, a) port k/2+j+1 <-> core (a*k/2 + j) port p+1.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t a = 0; a < half; ++a) {
      for (std::uint32_t j = 0; j < half; ++j) {
        model.add_link(aggs[p][a], static_cast<std::uint16_t>(half + j + 1),
                       cores[a * half + j], static_cast<std::uint16_t>(p + 1));
      }
    }
  }

  for (const EntityId core : cores) model.add_control_connection(c1, core, options.tls);
  for (std::uint32_t p = 0; p < k; ++p) {
    for (const EntityId sw : aggs[p]) model.add_control_connection(c1, sw, options.tls);
    for (const EntityId sw : edges[p]) model.add_control_connection(c1, sw, options.tls);
  }
  return model;
}

// Two-tier leaf-spine fabric: full bipartite spine <-> leaf mesh, H hosts
// per leaf. Leaf ports 1..S go to spines, S+1..S+H to hosts.
//   spine sp{i}  dpid (4<<24) | (i+1), L ports
//   leaf  lf{j}  dpid (5<<24) | (j+1), S+H ports
//   host  h{j}_{m}  ip 10.x.y.z = 0x0a000000 + (j*H + m) + 1, mac from_u64(ip)
SystemModel build_leaf_spine(std::uint32_t spines, std::uint32_t leaves,
                             std::uint32_t hosts_per_leaf, const BuildOptions& options) {
  SystemModel model;
  const EntityId c1 = model.add_controller(
      ControllerSpec{"c1", pkt::Ipv4Address::parse("10.0.100.1"), 6633});

  std::vector<EntityId> spine_ids, leaf_ids;
  for (std::uint32_t i = 0; i < spines; ++i) {
    SwitchSpec spec;
    spec.name = "sp" + std::to_string(i);
    spec.dpid = (4ull << 24) | (i + 1);
    spec.num_ports = static_cast<std::uint16_t>(leaves);
    spec.fail_secure = (i == 0) ? options.chokepoint_fail_secure : options.others_fail_secure;
    spine_ids.push_back(model.add_switch(std::move(spec)));
  }
  for (std::uint32_t j = 0; j < leaves; ++j) {
    SwitchSpec spec;
    spec.name = "lf" + std::to_string(j);
    spec.dpid = (5ull << 24) | (j + 1);
    spec.num_ports = static_cast<std::uint16_t>(spines + hosts_per_leaf);
    spec.fail_secure = options.others_fail_secure;
    leaf_ids.push_back(model.add_switch(std::move(spec)));
  }

  for (std::uint32_t j = 0; j < leaves; ++j) {
    for (std::uint32_t i = 0; i < spines; ++i) {
      model.add_link(leaf_ids[j], static_cast<std::uint16_t>(i + 1), spine_ids[i],
                     static_cast<std::uint16_t>(j + 1));
    }
  }

  for (std::uint32_t j = 0; j < leaves; ++j) {
    for (std::uint32_t m = 0; m < hosts_per_leaf; ++m) {
      const std::uint32_t ip =
          0x0a000000u + static_cast<std::uint32_t>(j) * hosts_per_leaf + m + 1;
      HostSpec spec;
      spec.name = "h" + std::to_string(j) + "_" + std::to_string(m);
      spec.ip = pkt::Ipv4Address{ip};
      spec.mac = pkt::MacAddress::from_u64(ip);
      const EntityId host = model.add_host(std::move(spec));
      model.add_link(host, std::nullopt, leaf_ids[j],
                     static_cast<std::uint16_t>(spines + m + 1));
    }
  }

  for (const EntityId sw : spine_ids) model.add_control_connection(c1, sw, options.tls);
  for (const EntityId sw : leaf_ids) model.add_control_connection(c1, sw, options.tls);
  return model;
}

}  // namespace

SystemModel build_model(const TopologySpec& spec, const BuildOptions& options) {
  spec.check();
  SystemModel model;
  switch (spec.kind) {
    case TopologyKind::Enterprise: model = build_enterprise(options); break;
    case TopologyKind::FatTree: model = build_fat_tree(spec.k, options); break;
    case TopologyKind::LeafSpine:
      model = build_leaf_spine(spec.spines, spec.leaves, spec.hosts_per_leaf, options);
      break;
  }
  model.validate();
  return model;
}

}  // namespace attain::topo
