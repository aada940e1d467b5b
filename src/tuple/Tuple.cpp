//===- tuple/Tuple.cpp - Tuple helpers ---------------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "tuple/Tuple.h"

namespace sting {

void Match::bindFormals(const Tuple &Template) {
  std::size_t Count = 0;
  for (const Field &F : Template)
    if (F.isFormal())
      Count = std::max(Count, std::size_t(F.formalIndex()) + 1);
  Bindings.assign(Count, gc::Value::nil());
  const std::size_t N = std::min(Template.size(), Fields.size());
  for (std::size_t I = 0; I != N; ++I)
    if (Template[I].isFormal())
      Bindings[Template[I].formalIndex()] = Fields[I];
}

} // namespace sting
