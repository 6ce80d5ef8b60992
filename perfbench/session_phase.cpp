// session_phase.cpp — the edit-session half of a workload: a closed loop of
// clients, each waiting for its reply before sending the next request, on
// one in-process service::Service.  Every client keeps a mirror netlist
// that applies the same edits and rollbacks; a fixed sample of replies is
// checked against the mirror after the loop (structural hash and a full
// power::analyze), so the checking never sits inside the measured loop.
//
// The request mix is an assumption, not a recorded trace: the repository
// holds no log of real lpsd sessions.  See README.md ("The session request
// mix") for what each share stands for and what it makes the metrics mean.

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common.hpp"
#include "core/diag.hpp"
#include "core/parallel.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace perfbench {

using lps::Netlist;
using lps::NodeId;
using lps::service::Json;
using lps::service::JsonArray;

namespace {

constexpr std::size_t kVectors = 2048;     // session analyzer vectors
constexpr std::size_t kEditsPerLoad = 24;  // reload cadence (bounds rollback replay)
constexpr std::size_t kSampleEvery = 8;    // every 8th reply is checked ...
constexpr std::size_t kMaxTimedSamples = 12;  // ... up to this many Timed ones per client

// One committed edit, as the client sent it.
struct Edit {
  NodeId node = 0;
  bool resize = false;  // set_size, else replace_fanin
  std::size_t index = 0;
  NodeId with = 0;
  double size = 1.0;

  void apply(Netlist& net) const {
    if (resize)
      net.node(node).size = size;
    else
      net.replace_fanin(node, index, with);
  }
};

struct Sample {
  Verb verb;
  std::vector<Edit> edits;  // the session state the reply must describe
  Json reply;
};

struct Client {
  std::string session;
  std::uint64_t load_seed = 0;
  std::mt19937_64 rng;
  Netlist mirror;            // base + edits, edited alongside the session
  std::vector<Edit> edits;   // committed since the last load, oldest first
  std::size_t edits_since_load = 0;
  std::size_t requests = 0;  // loop requests sent (drives the mix and sampling)
  std::vector<Verb> mix;     // one cycle of the request mix, shuffled per client
  std::vector<Sample> samples;
  std::size_t timed_samples = 0;
  SessionStats stats;
};

std::string load_frame(const Client& c, const std::string& blif) {
  Json req;
  req.set("verb", Json("load"));
  req.set("session", Json(c.session));
  req.set("blif", Json(blif));
  req.set("vectors", Json(kVectors));
  req.set("seed", Json(c.load_seed));
  return req.dump();
}

std::string simple_frame(const char* verb, const Client& c) {
  Json req;
  req.set("verb", Json(verb));
  req.set("session", Json(c.session));
  return req.dump();
}

}  // namespace

const char* verb_name(Verb v) {
  switch (v) {
    case kMutate: return "service.mutate";
    case kEstimateCached: return "service.estimate_cached";
    case kEstimateTimed: return "service.estimate_timed";
    case kRollback: return "service.rollback";
    case kLoad: return "service.load";
    case kStat: return "service.stat";
    case kNumVerbs: break;
  }
  return "?";
}

double SessionStats::throughput() const {
  std::vector<double> per_second(static_cast<std::size_t>(wall_s), 0.0);
  for (double t : done_s)
    if (t < static_cast<double>(per_second.size()))
      per_second[static_cast<std::size_t>(t)] += 1.0;
  return per_second.empty() ? static_cast<double>(sent) / wall_s : median(per_second);
}

std::vector<double> SessionStats::all_latency_ms() const {
  std::vector<double> all;
  for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
  return all;
}

struct SessionLoad::Impl {
  std::string blif;
  Netlist base;               // parsed once from `blif`, as the service parses it
  std::vector<NodeId> gates;  // live logic gates of `base` (edit targets)
  std::vector<Client> clients;
  std::unique_ptr<lps::service::Service> service;
  Clock::time_point loop_start;

  // Send one request, time it, and account for the reply.
  Json send(Client& c, Verb verb, const std::string& frame) {
    auto t0 = Clock::now();
    std::string reply = service->dispatch(frame);
    double ms = seconds_since(t0) * 1000.0;
    c.stats.latency_ms[verb].push_back(ms);
    c.stats.done_s.push_back(seconds_since(loop_start));
    ++c.stats.sent;
    auto doc = lps::service::json_parse(reply);
    const Json* ok = doc ? doc->find("ok") : nullptr;
    if (!ok || !ok->as_bool()) {
      ++c.stats.failed;
      c.stats.notes.push_back(std::string(verb_name(verb)) + " failed: " + reply);
      return Json();
    }
    return *doc;
  }

  Netlist rebuild(const std::vector<Edit>& edits) const {
    Netlist net = base;
    for (const Edit& e : edits) e.apply(net);
    return net;
  }

  void reload(Client& c) {
    c.mirror = base;
    c.edits.clear();
    c.edits_since_load = 0;
    send(c, kLoad, load_frame(c, blif));
  }

  // One mutate: rewire a gate's fanin to a primary input it does not read
  // (acyclic by construction), or resize a gate.
  void mutate(Client& c) {
    Edit e;
    e.node = gates[c.rng() % gates.size()];
    e.resize = c.rng() % 4 == 0;
    Json op;
    op.set("node", Json(e.node));
    if (!e.resize) {
      const auto& fanins = std::as_const(c.mirror).node(e.node).fanins;
      const auto& pis = c.mirror.inputs();
      e.index = c.rng() % fanins.size();
      do {
        e.with = pis[c.rng() % pis.size()];
      } while (std::find(fanins.begin(), fanins.end(), e.with) != fanins.end());
      op.set("op", Json("replace_fanin"));
      op.set("index", Json(e.index));
      op.set("with", Json(e.with));
    } else {
      static constexpr double kSizes[] = {0.5, 1.0, 1.5, 2.0, 4.0};
      e.size = kSizes[c.rng() % 5];
      op.set("op", Json("set_size"));
      op.set("value", Json(e.size));
    }
    e.apply(c.mirror);
    c.edits.push_back(e);
    Json req;
    req.set("verb", Json("mutate"));
    req.set("session", Json(c.session));
    req.set("ops", Json(JsonArray{op}));
    Json reply = send(c, kMutate, req.dump());
    ++c.edits_since_load;
    if (const Json* r = reply.find("resim_nodes")) {
      c.stats.resim_nodes += r->as_number();
      ++c.stats.resim_replies;
    }
    record(c, kMutate, std::move(reply));
  }

  void record(Client& c, Verb verb, Json reply) {
    if (c.requests++ % kSampleEvery != 0 || reply.is_null()) return;
    if (verb == kEstimateTimed && c.timed_samples++ >= kMaxTimedSamples) return;
    c.samples.push_back({verb, c.edits, std::move(reply)});
  }

  // Add the session's estimate counts, which a load resets, to the client's
  // totals.  `timed` = a request of the loop, else a final read.
  void add_estimate_counts(Client& c, bool timed) {
    std::string frame = simple_frame("stat", c);
    Json reply = timed ? send(c, kStat, frame)
                       : lps::service::json_parse(service->dispatch(frame)).value_or(Json());
    if (const Json* e = reply.find("estimates_full"))
      c.stats.estimates_full += e->as_number();
    if (const Json* e = reply.find("estimates_cached"))
      c.stats.estimates_cached += e->as_number();
  }

  void loop(Client& c, Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      if (c.edits_since_load == kEditsPerLoad) {
        add_estimate_counts(c, true);
        reload(c);
        continue;
      }
      Verb v = c.mix[c.requests % c.mix.size()];
      if (v == kMutate || (v == kRollback && c.edits.empty())) {
        mutate(c);
      } else if (v == kEstimateCached) {
        record(c, kEstimateCached, send(c, kEstimateCached, simple_frame("estimate", c)));
      } else if (v == kEstimateTimed) {
        Json req;
        req.set("verb", Json("estimate"));
        req.set("session", Json(c.session));
        req.set("mode", Json("timed"));
        record(c, kEstimateTimed, send(c, kEstimateTimed, req.dump()));
      } else {
        c.edits.pop_back();
        c.mirror = rebuild(c.edits);
        record(c, kRollback, send(c, kRollback, simple_frame("rollback", c)));
      }
    }
  }

  // Compare one sampled reply with the mirror it was recorded against.
  std::string verify(const Client& c, const Sample& s) {
    const Netlist mirror = rebuild(s.edits);
    const Json* hash = s.reply.find("hash");
    if (!hash || hash->as_string() != lps::service::format_hash(lps::structural_hash(mirror)))
      return "hash differs from the mirror";
    if (s.verb == kRollback) return {};
    const Json* power = s.reply.find("power_w");
    if (!power) return "reply carries no power_w";
    lps::power::AnalysisOptions ao;
    ao.mode = s.verb == kEstimateTimed ? lps::power::ActivityMode::Timed
                                       : lps::power::ActivityMode::ZeroDelay;
    ao.n_vectors = kVectors;
    ao.seed = c.load_seed;
    double ref = lps::power::analyze(mirror, ao).report.breakdown.total_w();
    if (power->as_number() != ref) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "power_w %.17g, mirror analyze %.17g",
                    power->as_number(), ref);
      return buf;
    }
    return {};
  }
};

SessionLoad::SessionLoad(const Netlist& net, std::uint64_t seed, int clients)
    : impl_(std::make_unique<Impl>()) {
  impl_->blif = lps::blif::write_string(net);
  lps::diag::DiagEngine eng(8);
  auto parsed = lps::blif::parse_string(impl_->blif, eng, "<load>");
  if (!parsed) throw std::runtime_error("session netlist does not round-trip BLIF");
  impl_->base = std::move(*parsed);
  for (NodeId id = 0; id < impl_->base.size(); ++id) {
    const auto& n = impl_->base.node(id);
    if (!n.dead && !lps::is_source(n.type) && n.type != lps::GateType::Dff)
      impl_->gates.push_back(id);
  }
  for (int i = 0; i < clients; ++i) {
    Client c;
    c.session = "client" + std::to_string(i);
    // A JSON number carries integers exactly only up to 2^53.
    c.load_seed = lps::core::shard_seed(seed, 100 + static_cast<std::uint64_t>(i)) >> 12;
    c.rng.seed(seed * 1000003u + static_cast<std::uint64_t>(i));
    // Fixed shares per cycle of 25 requests (56% mutate, 24% cached
    // estimate, 8% timed estimate, 12% rollback), so every seed offers the
    // same load; only the order and the edits depend on the seed.  The
    // shares are assumed, not measured; README.md gives the reason for each.
    for (auto [verb, n] : {std::pair{kMutate, 14}, {kEstimateCached, 6},
                           {kEstimateTimed, 2}, {kRollback, 3}})
      c.mix.insert(c.mix.end(), n, verb);
    std::shuffle(c.mix.begin(), c.mix.end(), c.rng);
    impl_->clients.push_back(std::move(c));
  }
}

SessionLoad::~SessionLoad() = default;

void SessionLoad::start() {
  impl_->service = std::make_unique<lps::service::Service>();
  for (Client& c : impl_->clients) impl_->reload(c);
}

SessionStats SessionLoad::run(double seconds) {
  Impl& m = *impl_;
  // Set-up requests are not part of the measured loop.
  for (Client& c : m.clients) c.stats = SessionStats{};
  auto t0 = m.loop_start = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> team;
  std::vector<std::string> errors(m.clients.size());
  for (std::size_t i = 0; i < m.clients.size(); ++i)
    team.emplace_back([&m, &errors, i, deadline] {
      try {
        m.loop(m.clients[i], deadline);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  for (auto& t : team) t.join();

  SessionStats all;
  all.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < m.clients.size(); ++i) {
    Client& c = m.clients[i];
    m.add_estimate_counts(c, false);
    for (int v = 0; v < kNumVerbs; ++v)
      all.latency_ms[v].insert(all.latency_ms[v].end(), c.stats.latency_ms[v].begin(),
                               c.stats.latency_ms[v].end());
    all.sent += c.stats.sent;
    all.done_s.insert(all.done_s.end(), c.stats.done_s.begin(), c.stats.done_s.end());
    all.failed += c.stats.failed;
    all.resim_nodes += c.stats.resim_nodes;
    all.resim_replies += c.stats.resim_replies;
    all.estimates_full += c.stats.estimates_full;
    all.estimates_cached += c.stats.estimates_cached;
    all.notes.insert(all.notes.end(), c.stats.notes.begin(), c.stats.notes.end());
    if (!errors[i].empty()) {
      ++all.failed;
      all.notes.push_back(c.session + " client threw: " + errors[i]);
    }
  }
  return all;
}

void SessionLoad::check(SessionStats& stats) {
  Impl& m = *impl_;
  for (const Client& c : m.clients)
    for (const Sample& s : c.samples) {
      ++stats.checked;
      std::string why = m.verify(c, s);
      if (!why.empty()) {
        ++stats.failed;
        stats.notes.push_back(c.session + " " + verb_name(s.verb) + ": " + why);
      }
    }
}

}  // namespace perfbench
