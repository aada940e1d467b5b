//===- core/policy/Siblings.h - Same-policy VPs of one machine --*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The victims an idle VP may steal from: the policy instances of the same
/// kind on the other VPs of its machine. Both migrating built-ins (local
/// FIFO and steal-half) find their siblings here.
///
/// The table is read off the machine itself, so two machines built from
/// one PolicyFactory never see each other's queues. It is resolved on
/// first use: policies are built one VP at a time, but pm-vp-idle only
/// runs once every VP exists. A VP running a different policy (VPs of one
/// machine may differ, section 3.3) is never a victim.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLICY_SIBLINGS_H
#define STING_CORE_POLICY_SIBLINGS_H

#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"

#include <cstddef>
#include <vector>

namespace sting::fastpath {

/// The \p PolicyT instances of one machine, indexed by VP. Owner-only: a
/// policy instance keeps one and uses it from its own pm-vp-idle.
template <typename PolicyT> class Siblings {
public:
  Siblings(VirtualMachine &Vm, unsigned Self) : Vm(&Vm), Self(Self) {}

  /// VPs in the machine (the table's length, self included).
  std::size_t size() {
    resolve();
    return Members.size();
  }

  /// The instance on VP \p I, or null for this VP itself and for VPs
  /// running another policy.
  PolicyT *operator[](std::size_t I) {
    resolve();
    return Members[I];
  }

  /// Probes the siblings nearest-first, from this VP's index + 1 around
  /// the ring, and \returns the first non-null \p Probe(Victim, VpIndex)
  /// result, or null when every probe comes back empty.
  template <typename Fn> Schedulable *firstOf(Fn &&Probe) {
    resolve();
    const std::size_t N = Members.size();
    for (std::size_t Hop = 1; Hop < N; ++Hop) {
      const std::size_t I = (Self + Hop) % N;
      if (PolicyT *Victim = Members[I])
        if (Schedulable *Item = Probe(*Victim, I))
          return Item;
    }
    return nullptr;
  }

private:
  void resolve() {
    if (!Members.empty())
      return;
    const unsigned N = Vm->numVps();
    Members.assign(N, nullptr);
    for (unsigned I = 0; I != N; ++I)
      if (I != Self)
        Members[I] = dynamic_cast<PolicyT *>(&Vm->vp(I).policy());
  }

  VirtualMachine *Vm;
  unsigned Self;
  std::vector<PolicyT *> Members;
};

} // namespace sting::fastpath

#endif // STING_CORE_POLICY_SIBLINGS_H
