//===- examples/primes_futures.cpp - Result parallelism (paper Fig. 3) ------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The paper's Fig. 3 prime finder, translated from:
//
//   (define (primes limit)
//     (let loop ((i 3) (primes (future (list 2))))
//       (cond ((> i limit) (touch primes))
//             (else (loop (+ i 2) (future (filter i primes)))))))
//
// Each future filters one candidate against the (future of the) primes
// list built so far, so future i implicitly depends on future i-2 — the
// dependency structure that makes scheduling order matter (section 4.1.1):
// LIFO runs late futures first, whose touches find earlier futures still
// scheduled and *steal* them; preemptive FIFO runs them in order, and
// "stealing operations will be minimal in this case".
//
//===----------------------------------------------------------------------===//

#include "sting/Sting.h"

#include <cstdio>
#include <memory>

using namespace sting;

namespace {

struct Node {
  int Prime;
  std::shared_ptr<Node> Rest;
};
using PList = std::shared_ptr<Node>;

/// The paper's filter: extends the list with N if no known prime up to
/// sqrt(N) divides it.
PList filterCandidate(int N, const Future<PList> &KnownFuture) {
  PList Known = KnownFuture.touch(); // the implicit dependency
  // The list is consed newest-first (descending), so filter rather than
  // cut off: only primes up to sqrt(N) can witness compositeness.
  for (Node *J = Known.get(); J; J = J->Rest.get())
    if (J->Prime * J->Prime <= N && N % J->Prime == 0)
      return Known;
  return std::make_shared<Node>(Node{N, Known});
}

int countPrimes(int Limit) {
  // (future (list 2))
  Future<PList> Primes = future(
      [] { return std::make_shared<Node>(Node{2, nullptr}); });
  for (int N = 3; N <= Limit; N += 2) {
    Future<PList> Prev = Primes;
    Primes = future([N, Prev] { return filterCandidate(N, Prev); });
  }
  int Count = 0;
  for (PList P = Primes.touch(); P; P = P->Rest)
    ++Count;
  return Count;
}

int runWith(PolicyFactory Policy, const char *Name, int Limit) {
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 1;
  Config.Policy = std::move(Policy);
  // Steal cascades unfold the whole dependency chain on one stack; give
  // it room (stacks are lazily committed virtual memory).
  Config.StackSize = 4 * 1024 * 1024;
  VirtualMachine Vm(Config);
  AnyValue R = Vm.run(
      [Limit]() -> AnyValue { return AnyValue(countPrimes(Limit)); });
  std::printf("%-16s pi(%d) = %-4d  steals = %llu\n", Name, Limit,
              R.as<int>(),
              (unsigned long long)Vm.aggregateStats().StealsSucceeded);
  return R.as<int>();
}

} // namespace

int main() {
  constexpr int Limit = 1000; // pi(1000) = 168
  int Fifo = runWith(makeLocalFifoPolicy(), "FIFO policy:", Limit);
  int Lifo = runWith(makeLocalLifoPolicy(), "LIFO policy:", Limit);
  return (Fifo == 168 && Lifo == 168) ? 0 : 1;
}
