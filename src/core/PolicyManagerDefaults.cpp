//===- core/PolicyManagerDefaults.cpp - PolicyManager base ------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PolicyManager.h"

#include "core/VirtualProcessor.h"

namespace sting {

PolicyManager::~PolicyManager() = default;

void PolicyManager::priorityHint(VirtualProcessor &, int) {}

void PolicyManager::quantumHint(VirtualProcessor &, std::uint64_t) {}

VirtualProcessor &PolicyManager::selectVpForNewThread(
    VirtualProcessor &Creator, const Thread &) {
  return Creator;
}

Schedulable *PolicyManager::vpIdle(VirtualProcessor &) { return nullptr; }

void PolicyManager::loadDepths(const VirtualProcessor &Vp,
                               std::uint64_t &ReadyDepth,
                               std::uint64_t &MailboxDepth) const {
  ReadyDepth = hasReadyWork(Vp) ? 1 : 0;
  MailboxDepth = 0;
}

} // namespace sting
