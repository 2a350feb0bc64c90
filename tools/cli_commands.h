// Implementations of the rnt_cli subcommands, separated from main() so the
// test suite can drive them with explicit flags and capture their output.
#pragma once

#include <iosfwd>

#include "util/flags.h"

namespace rnt::cli {

/// `rnt_cli topology` — generate/load a topology, print structural stats,
/// optionally save an edge list.
int cmd_topology(Flags& flags, std::ostream& out);

/// `rnt_cli select` — run a selection algorithm on a workload and print
/// the chosen paths.
int cmd_select(Flags& flags, std::ostream& out);

/// `rnt_cli evaluate` — score a selection's robustness under failures.
int cmd_evaluate(Flags& flags, std::ostream& out);

/// `rnt_cli learn` — run an online learner and report progress.
int cmd_learn(Flags& flags, std::ostream& out);

/// `rnt_cli localize` — score single-link failure localization.
int cmd_localize(Flags& flags, std::ostream& out);

/// `rnt_cli infer` — run the end-to-end inference loop (select → fail →
/// measure → solve → score) and report per-link estimation error.
int cmd_infer(Flags& flags, std::ostream& out);

/// `rnt_cli pipeline` — replay a (possibly non-stationary) failure trace
/// through the adaptive replanning pipeline and report per-run metrics.
int cmd_pipeline(Flags& flags, std::ostream& out);

/// `rnt_cli serve` — run the concurrent tomography service over TCP until
/// SIGINT (or a `shutdown` request); dumps metrics on exit.
int cmd_serve(Flags& flags, std::ostream& out);

/// `rnt_cli client` — send protocol lines (--request or stdin) to a
/// running service and print the replies.
int cmd_client(Flags& flags, std::istream& in, std::ostream& out);

/// `rnt_cli fuzz` — run the deterministic correctness harness: seeded
/// random instances checked against brute-force oracles and differential
/// twins, with failing cases shrunk to replayable repro files.
int cmd_fuzz(Flags& flags, std::ostream& out);

/// Prints the usage text.
void print_usage(std::ostream& out);

/// Full dispatch (used by main): parses the subcommand and runs it.
int dispatch(int argc, char** argv, std::ostream& out);

}  // namespace rnt::cli
