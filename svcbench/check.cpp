// `svcbench check`: verifies every reply the server sent, and with
// --trace 1 also runs the traced in-process replay (trace.cpp).
//
// Stateless verbs are answered by a pure function of the request line
// (the service's bitwise-determinism contract), so each reply must equal,
// byte for byte, the formatted Service::handle_line reply for the same
// line computed in this process.  Stateful verbs (`feed`, `replan`,
// `stats`, `ping`) depend on the order in which concurrent connections
// reached the server, so only `ok` and their required fields are checked.
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_io.h"
#include "service/protocol.h"
#include "service/service.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json.h"

namespace svcbench {
namespace {

const std::set<std::string> kStateless = {
    "select", "er-eval", "identifiability", "localize", "localize-node", "infer"};

const std::map<std::string, std::vector<std::string>> kRequiredFields = {
    {"stats", {"requests", "errors", "cache-hits", "cache-misses",
               "cache-evictions", "cache-hit-rate", "sessions"}},
    {"feed", {"fed", "epochs", "drift", "divergence"}},
    {"replan", {"workload", "budget", "selected", "cost", "objective", "rank",
                "paths", "warm", "reused", "gain-evals"}},
    {"ping", {"pong"}},
};

struct Answered {
  std::string id;  ///< Stream row index, or "s<i>" for a setup line.
  std::string line;
  std::string reply;
};

/// "ok", "error" (the server answered with an error) or "wrong".
std::string verdict(const Answered& a,
                    const std::map<std::string, std::string>& reference) {
  if (a.reply.rfind("error", 0) == 0) return "error";
  const std::string verb = verb_of(a.line);
  if (kStateless.contains(verb)) {
    return reference.at(a.line) == a.reply ? "ok" : "wrong";
  }
  const auto required = kRequiredFields.find(verb);
  if (required == kRequiredFields.end()) return "wrong";
  try {
    const rnt::service::Response r = rnt::service::parse_response(a.reply);
    if (!r.ok) return "wrong";
    for (const std::string& key : required->second) {
      if (r.find(key) == nullptr) return "wrong";
    }
  } catch (const std::exception&) {
    return "wrong";
  }
  return "ok";
}

}  // namespace

int run_check(int argc, const char* const* argv) {
  rnt::Flags flags(argc, argv);
  const std::string dir = flags.get_string("dir", "");
  const bool trace = flags.get_bool("trace", false);
  const auto sample = static_cast<std::size_t>(flags.get_int("sample", 200));
  flags.finish();
  if (dir.empty()) {
    std::cerr << "usage: svcbench check --dir D [--trace] [--sample N]\n";
    return 2;
  }

  const std::vector<std::string> setup = read_lines(dir + "/setup.txt");
  const std::vector<std::string> setup_replies =
      read_lines(dir + "/setup_replies.txt");
  const std::vector<StreamRow> stream = read_stream(dir + "/stream.tsv");
  const std::vector<ResultRow> results = read_results(dir + "/results.tsv");

  std::vector<Answered> answered;
  for (std::size_t i = 0; i < setup.size() && i < setup_replies.size(); ++i) {
    std::string id = "s";
    id += std::to_string(i);
    answered.push_back({std::move(id), setup[i], setup_replies[i]});
  }
  for (const ResultRow& r : results) {
    if (r.latency_us < 0) continue;  // Unanswered: counted by the caller.
    answered.push_back({std::to_string(r.idx), stream.at(r.idx).line, r.reply});
  }

  // Reference replies for every distinct stateless line, computed by 3
  // workers (the load is over, so they compete with nothing) over a cache
  // large enough that no key is evicted mid-check.
  std::map<std::string, std::string> reference;
  {
    rnt::service::Service service({3, 64});
    std::map<std::string, std::future<rnt::service::Response>> pending;
    for (const Answered& a : answered) {
      if (kStateless.contains(verb_of(a.line)) && !pending.contains(a.line)) {
        pending.emplace(a.line, service.submit_line(a.line));
      }
    }
    for (auto& [line, future] : pending) {
      reference.emplace(line, rnt::service::format_response(future.get()));
    }
  }

  std::ofstream out(dir + "/verdicts.tsv");
  std::size_t wrong = 0;
  for (const Answered& a : answered) {
    const std::string v = verdict(a, reference);
    out << a.id << '\t' << v << '\n';
    if (v == "wrong") {
      if (++wrong <= 5) {
        std::cerr << "svcbench check: wrong reply to '" << a.line.substr(0, 120)
                  << "'\n  got:  " << a.reply.substr(0, 200) << "\n  want: "
                  << (reference.contains(a.line)
                          ? reference.at(a.line).substr(0, 200)
                          : std::string("ok with the required fields"))
                  << "\n";
      }
    }
  }
  out.close();

  if (trace) {
    const rnt::util::Json metrics = run_trace(dir, setup, stream, results, sample);
    rnt::util::write_file(dir + "/trace.json", metrics.dump());
  }
  return wrong == 0 ? 0 : 1;
}

}  // namespace svcbench
