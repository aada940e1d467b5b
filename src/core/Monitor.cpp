//===- core/Monitor.cpp - Machine introspection --------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Monitor.h"

#include "core/ThreadGroup.h"
#include "core/VirtualMachine.h"

#include <cstdio>

namespace sting {

std::size_t MachineSnapshot::liveThreads() const {
  std::size_t N = 0;
  for (const GroupInfo &G : Groups)
    N += G.Threads.size();
  return N;
}

static ThreadInfo describeThread(Thread &T) {
  ThreadInfo Info;
  Info.Id = T.id();
  Info.State = T.state();
  Info.UserBlocked = T.isUserBlocked();
  Info.Priority = T.priority();
  Info.ParentId = T.parentId();
  Info.GroupId = T.group() ? T.group()->id() : 0;
  return Info;
}

GroupInfo snapshotGroup(ThreadGroup &Group) {
  GroupInfo Info;
  Info.Id = Group.id();
  Info.ParentId = Group.parent() ? Group.parent()->id() : 0;
  Info.TotalCreated = Group.totalCreated();
  for (const ThreadRef &T : Group.threads())
    Info.Threads.push_back(describeThread(*T));
  Info.Live = Info.Threads.size();
  return Info;
}

MachineSnapshot
snapshotMachine(VirtualMachine &Vm,
                const std::vector<ThreadGroup *> &ExtraGroups) {
  MachineSnapshot Snap;
  for (const auto &Vp : Vm.vps()) {
    Snap.Vps.push_back(Vp->stats().snapshot());
    Snap.ThreadsCreated += Snap.Vps.back().ThreadsCreated;
    Snap.ThreadsDetermined += Snap.Vps.back().ThreadsTerminated;
    Snap.Steals += Snap.Vps.back().StealsSucceeded;
  }

  // The machine's root group, any group whose ancestry reaches it, and
  // caller-supplied extras.
  ThreadGroup *Root = &Vm.rootGroup();
  Snap.Groups.push_back(snapshotGroup(*Root));
  for (const ThreadGroupRef &G : ThreadGroup::allGroups()) {
    if (G.get() == Root)
      continue;
    for (ThreadGroup *A = G->parent(); A; A = A->parent()) {
      if (A == Root) {
        Snap.Groups.push_back(snapshotGroup(*G));
        break;
      }
    }
  }
  for (ThreadGroup *G : ExtraGroups)
    if (G && G != Root)
      Snap.Groups.push_back(snapshotGroup(*G));
  return Snap;
}

std::string renderSnapshot(const MachineSnapshot &Snap) {
  std::string Out;
  char Line[256];

  std::snprintf(Line, sizeof(Line),
                "machine: created=%llu determined=%llu steals=%llu "
                "live=%zu\n",
                (unsigned long long)Snap.ThreadsCreated,
                (unsigned long long)Snap.ThreadsDetermined,
                (unsigned long long)Snap.Steals, Snap.liveThreads());
  Out += Line;

  for (std::size_t I = 0; I != Snap.Vps.size(); ++I) {
    const obs::SchedStatsSnapshot &S = Snap.Vps[I];
    std::snprintf(Line, sizeof(Line),
                  "  vp%zu: dispatches=%llu yields=%llu parks=%llu "
                  "exits=%llu tcb-reuse=%llu/%llu\n",
                  I, (unsigned long long)S.Dispatches,
                  (unsigned long long)S.Yields,
                  (unsigned long long)S.Parks,
                  (unsigned long long)S.Exits,
                  (unsigned long long)S.TcbReuses,
                  (unsigned long long)(S.TcbReuses + S.TcbAllocs));
    Out += Line;
  }

  for (const GroupInfo &G : Snap.Groups) {
    std::snprintf(Line, sizeof(Line),
                  "  group %llu (parent %llu): live=%zu created=%llu\n",
                  (unsigned long long)G.Id, (unsigned long long)G.ParentId,
                  G.Live, (unsigned long long)G.TotalCreated);
    Out += Line;
    for (const ThreadInfo &T : G.Threads) {
      std::snprintf(Line, sizeof(Line),
                    "    thread %llu: %s%s prio=%d parent=%llu\n",
                    (unsigned long long)T.Id, threadStateName(T.State),
                    T.UserBlocked ? " (blocked)" : "", T.Priority,
                    (unsigned long long)T.ParentId);
      Out += Line;
    }
  }
  return Out;
}

} // namespace sting
