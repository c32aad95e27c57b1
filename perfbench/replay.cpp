// bench_replay — the benchmark's in-process side.
//
// Replays a request list through the same public entry points the shipped
// tools call, in the order they call them, and records one span around each
// call. Spans stay in memory and are written out with the results at the
// end. Every span carries its name, start, end (ns since the replay began),
// parent span and request id.
//
//   bench_replay arch --rob R --out FILE
//       write the paper chip preset with its ROB set to R (setup input)
//   bench_replay pimsim --requests FILE --out FILE
//       one fresh artifact::Store per request, as one `pimsim --json` run
//   bench_replay serve --requests FILE --jobs N --out FILE
//       one long-lived serve::Server; each line through handle_line
//
// The request file is {"requests": [...]}; perfbench/run.py writes it and
// reads the output back. Checks that are not part of a tool's request path
// (reference outputs, simulated counts) run after the request's spans close.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "common/strings.h"
#include "config/arch_config.h"
#include "nn/executor.h"
#include "runtime/batch_runner.h"
#include "runtime/simulator.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/workload.h"

namespace {

using namespace pim;
using Clock = std::chrono::steady_clock;

/// In-memory span log. Spans are appended on open and stamped on close, so
/// the log is in start order.
class Spans {
 public:
  size_t open(const char* name, int64_t parent, int64_t request) {
    spans_.push_back({name, now_ns(), 0, parent, request});
    return spans_.size() - 1;
  }
  void close(size_t i) { spans_[i].end_ns = now_ns(); }

  /// Run `fn` inside a span named `name` under `parent`; returns its result.
  template <typename Fn>
  auto timed(const char* name, size_t parent, Fn&& fn) {
    const size_t i = open(name, static_cast<int64_t>(parent), spans_[parent].request);
    auto out = fn();
    close(i);
    return out;
  }

  json::Value to_json() const {
    json::Array arr;
    arr.reserve(spans_.size());
    for (const Span& s : spans_) {
      json::Value v;
      v["name"] = json::Value(s.name);
      v["start_ns"] = json::Value(s.start_ns);
      v["end_ns"] = json::Value(s.end_ns);
      v["parent"] = json::Value(s.parent);
      v["request"] = json::Value(s.request);
      arr.push_back(std::move(v));
    }
    return json::Value(std::move(arr));
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into spans_, -1 for a request's root span
    int64_t request;
  };
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Simulated counts, summed over reports: identical under any
/// simulator-only change.
struct ArchCounts {
  uint64_t kernel_events = 0;
  uint64_t instructions = 0;
  uint64_t noc_bytes = 0;
  uint64_t rob_full_stalls = 0;
  double sim_latency_ms = 0.0;

  void add(const runtime::Report& r) {
    kernel_events += r.stats.kernel_events;
    instructions += r.stats.total_instructions();
    noc_bytes += r.stats.total_bytes_on_noc();
    for (const arch::CoreStats& c : r.stats.cores) rob_full_stalls += c.rob_full_stalls;
    sim_latency_ms += r.latency_ms();
  }
  json::Value to_json() const {
    json::Value v;
    v["kernel_events"] = json::Value(kernel_events);
    v["instructions"] = json::Value(instructions);
    v["noc_bytes"] = json::Value(noc_bytes);
    v["rob_full_stalls"] = json::Value(rob_full_stalls);
    v["sim_latency_ms"] = json::Value(sim_latency_ms);
    return v;
  }
};

/// Does `output` hold `batch` copies of the reference executor's output on
/// `input`? (simulate_compiled replicates one input per batch position.)
bool output_matches_reference(const nn::Graph& graph, const nn::Tensor& input,
                              const std::vector<int8_t>& output, uint32_t batch) {
  const std::vector<int8_t> ref = nn::execute_reference_output(graph, input).data;
  if (ref.empty() || output.size() != ref.size() * batch) return false;
  for (uint32_t b = 0; b < batch; ++b) {
    if (!std::equal(ref.begin(), ref.end(), output.begin() + b * ref.size())) return false;
  }
  return true;
}

/// pimsim's --arch resolution: a preset name or a configuration file.
config::ArchConfig arch_by_name_or_file(const std::string& name) {
  try {
    return config::ArchConfig::preset(name);
  } catch (const std::invalid_argument&) {
    return config::ArchConfig::load(name);
  }
}

/// One `pimsim --workload W --arch A [--functional] --json` run, call for
/// call, on a fresh store.
json::Value replay_pimsim(const json::Value& req, Spans& spans) {
  const int64_t id = req.at("id").as_int();
  const std::string token = req.at("workload").as_string();
  const bool functional = req.get_or("functional", false);
  const auto input_hw = static_cast<int32_t>(req.get_or("input_hw", int64_t{32}));

  const size_t root = spans.open("request", -1, id);
  config::ArchConfig cfg = arch_by_name_or_file(req.at("arch").as_string());
  artifact::Store store;
  const artifact::GraphHandle wl = spans.timed("artifact.graph", root, [&] {
    return store.graph(workload::parse_workload_token(token, input_hw), functional);
  });
  cfg.sim.functional = functional;
  compiler::CompileOptions copts;
  copts.include_weights = functional;
  const auto net =
      spans.timed("artifact.program", root, [&] { return store.program(wl, cfg, copts); });
  nn::Tensor input;
  if (functional) {
    input = spans.timed("nn.random_input", root,
                        [&] { return nn::random_input(wl.built->input_shape, 7); });
  }
  const uint64_t fingerprint = spans.timed("workload.graph_fingerprint", root, [&] {
    return workload::graph_fingerprint(wl.built->graph);
  });
  const runtime::Report report = spans.timed("runtime.simulate", root, [&] {
    return runtime::simulate_compiled(*net, cfg, functional ? &input : nullptr);
  });
  std::string text =
      spans.timed("runtime.report_json", root, [&] { return report.to_json().dump(2); });
  spans.close(root);

  json::Value out;
  out["id"] = json::Value(id);
  out["report"] = json::Value(std::move(text));
  out["finished"] = json::Value(report.finished);
  out["fingerprint"] = json::Value(strformat(
      "%016llx", static_cast<unsigned long long>(fingerprint)));
  ArchCounts counts;
  counts.add(report);
  out["arch"] = counts.to_json();
  out["store"] = store.stats().to_json();
  const workload::WorkloadSpec spec = workload::parse_workload_token(token, input_hw);
  out["bytes_parsed"] = json::Value(static_cast<uint64_t>(
      spec.kind == workload::Kind::GraphFile ? std::filesystem::file_size(spec.path) : 0));
  if (functional) {
    out["output_ok"] = json::Value(
        output_matches_reference(wl.built->graph, input, report.output, copts.batch));
  }
  return out;
}

/// A served scenario's simulated results, without host-time fields.
json::Value simulated_fields(json::Value v) {
  v.as_object().erase("wall_ms");
  v.as_object().erase("retries");
  return v;
}

/// Run every scenario of one served request directly (one worker, fresh
/// store) and check each functional output against the reference executor.
/// Returns the summed simulated counts, the verdict, and what each scenario
/// of the reply must say: the full report for an evaluate, the simulated
/// fields of each scenario row for a sweep.
json::Value verify_served(const std::string& line) {
  const serve::Request req = serve::parse_request(line);
  const std::vector<runtime::Scenario> scenarios =
      req.kind == serve::Kind::Batch ? serve::sweep_from_request(req.body)
                                     : std::vector{serve::scenario_from_request(req.body)};
  const runtime::BatchResult res = runtime::BatchRunner(1).run(scenarios);
  ArchCounts counts;
  bool output_ok = true;
  json::Array expect;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const runtime::Scenario& s = scenarios[i];
    const runtime::ScenarioResult& r = res.results.at(i);
    counts.add(r.report);
    expect.push_back(req.kind == serve::Kind::Batch ? simulated_fields(r.to_json())
                                                    : r.report.to_json());
    if (!r.ok) output_ok = false;
    if (r.ok && s.functional) {
      const workload::BuiltWorkload built = workload::build(s.workload, /*init_params=*/true);
      const nn::Tensor input = nn::random_input(built.input_shape, s.input_seed);
      output_ok = output_ok && output_matches_reference(built.graph, input, r.report.output,
                                                        std::max(1u, s.copts.batch));
    }
  }
  json::Value out;
  out["arch"] = counts.to_json();
  out["output_ok"] = json::Value(output_ok);
  out["expect"] = json::Value(std::move(expect));
  return out;
}

/// Does a served reply say what the direct run of its request computed?
bool reply_matches(const std::string& reply, const json::Value& expect) {
  const json::Value v = json::parse(reply);
  if (!v.get_or("ok", false)) return false;
  json::Array got;
  if (v.contains("report")) {
    got.push_back(v.at("report"));
  } else {
    for (const json::Value& row : v.at("result").at("scenarios").as_array()) {
      got.push_back(simulated_fields(row));
    }
  }
  return json::Value(std::move(got)) == expect;
}

/// The serve list on one long-lived Server: warm-up lines first (untimed),
/// then one span per handle_line call. Verification of each distinct request
/// runs after the whole list, so it cannot disturb the server's timings.
json::Value replay_serve(const json::Array& requests, unsigned jobs, Spans& spans) {
  serve::ServerOptions opt;
  opt.jobs = jobs;
  serve::Server server(opt);
  json::Value before;
  bool measuring = false;
  json::Array results;
  for (const json::Value& req : requests) {
    const std::string line = req.at("line").as_string();
    if (req.get_or("warmup", false)) {
      server.handle_line(line);
      continue;
    }
    if (!measuring) {
      before = server.stats_snapshot();
      measuring = true;
    }
    const int64_t id = req.at("id").as_int();
    const size_t span = spans.open("serve.handle_line", -1, id);
    std::string reply = server.handle_line(line);
    spans.close(span);
    json::Value out;
    out["id"] = json::Value(id);
    out["reply"] = json::Value(std::move(reply));
    results.push_back(std::move(out));
  }
  const json::Value after = server.stats_snapshot();

  std::map<std::string, json::Value> verified;  // request key -> verdict
  size_t i = 0;
  for (const json::Value& req : requests) {
    if (req.get_or("warmup", false)) continue;
    const std::string key = req.at("key").as_string();
    auto it = verified.find(key);
    if (it == verified.end()) {
      it = verified.emplace(key, verify_served(req.at("line").as_string())).first;
    }
    json::Value& out = results.at(i++);
    out["arch"] = it->second.at("arch");
    out["output_ok"] = it->second.at("output_ok");
    out["matches_direct_run"] =
        json::Value(reply_matches(out.at("reply").as_string(), it->second.at("expect")));
  }

  json::Value store;
  for (const char* c : {"graph_hits", "graph_misses", "program_hits", "program_misses",
                        "evictions"}) {
    const std::string name = std::string("artifact.") + c;
    const json::Value& b = before.is_null() ? after : before;
    store[c] = json::Value(after.at("counters").get_or(name, int64_t{0}) -
                           b.at("counters").get_or(name, int64_t{0}));
  }
  json::Value v;
  v["results"] = json::Value(std::move(results));
  v["store"] = std::move(store);
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_replay arch --rob R --out FILE\n"
               "       bench_replay pimsim --requests FILE --out FILE\n"
               "       bench_replay serve --requests FILE --jobs N --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opts;
  for (int i = 2; i + 1 < argc; i += 2) opts[argv[i]] = argv[i + 1];
  if (!opts.count("--out")) return usage();

  try {
    if (mode == "arch") {
      if (!opts.count("--rob")) return usage();
      config::ArchConfig cfg = config::ArchConfig::preset("paper");
      cfg.core.rob_size = static_cast<uint32_t>(std::stoul(opts.at("--rob")));
      cfg.name += "-rob" + opts.at("--rob");
      cfg.save(opts.at("--out"));
      return 0;
    }
    if (!opts.count("--requests")) return usage();
    const json::Value doc = json::parse_file(opts.at("--requests"));
    const json::Array& requests = doc.at("requests").as_array();
    Spans spans;
    json::Value out;
    if (mode == "pimsim") {
      json::Array results;
      for (const json::Value& req : requests) results.push_back(replay_pimsim(req, spans));
      out["results"] = json::Value(std::move(results));
    } else if (mode == "serve") {
      if (!opts.count("--jobs")) return usage();
      out = replay_serve(requests, static_cast<unsigned>(std::stoul(opts.at("--jobs"))),
                         spans);
    } else {
      return usage();
    }
    out["spans"] = spans.to_json();
    std::FILE* f = std::fopen(opts.at("--out").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + opts.at("--out"));
    const std::string text = out.dump();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok) throw std::runtime_error("cannot write " + opts.at("--out"));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_replay: %s\n", e.what());
    return 1;
  }
}
