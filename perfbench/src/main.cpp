//===- perfbench/src/main.cpp - stingbench entry point --------------------===//
//
//   stingbench --workload <router_keyed|replicated_mix|substrate_farm|shard_direct|tuple_pingpong>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//
// Builds the workload from the seed, runs it, checks its outputs and
// prints one JSON line: every metric with its value, unit and sample
// count, plus each correctness gate. --trace 0 measures the end-to-end
// metrics; --trace 1 measures the per-layer ones (counter deltas, spans,
// the layer ladder). An untraced run builds several machines and measures
// the last one for --seconds; run.py runs several such processes and
// reports medians over them. Exits 1 when a gate fails, 2 on bad
// arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <cstring>

using namespace perfbench;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "stingbench: %s\nusage: stingbench --workload "
               "<router_keyed|replicated_mix|substrate_farm|shard_direct|tuple_pingpong> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               Why);
  return 2;
}

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const char *Flag = Argv[I];
    if (I + 1 == Argc)
      return usage("missing value");
    const char *Val = Argv[++I];
    if (!std::strcmp(Flag, "--workload"))
      O.Workload = Val;
    else if (!std::strcmp(Flag, "--seed"))
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      O.Seconds = std::strtod(Val, nullptr);
    else if (!std::strcmp(Flag, "--trace"))
      O.Trace = std::atoi(Val) != 0;
    else if (!std::strcmp(Flag, "--out"))
      O.OutDir = Val;
    else
      return usage("unknown flag");
  }
  if (!(O.Seconds > 0))
    return usage("--seconds must be positive");

  Result R;
  if (O.Workload == "router_keyed")
    R = runRouterKeyed(O);
  else if (O.Workload == "replicated_mix")
    R = runReplicatedMix(O);
  else if (O.Workload == "substrate_farm")
    R = runSubstrateFarm(O);
  else if (O.Workload == "shard_direct")
    R = runShardDirect(O);
  else if (O.Workload == "tuple_pingpong")
    R = runTuplePingPong(O);
  else
    return usage("unknown workload");
  if (O.Trace)
    runLadder(O, R);
  else
    reportEndToEnd(R);
  R.print(stdout, O);
  return R.correct() ? 0 : 1;
}
