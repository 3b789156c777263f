//===- bytecode/Program.cpp - A whole bytecode program -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Program.h"

#include "bytecode/MethodImage.h"

#include <type_traits>

using namespace aoci;

// Moving a Program leaves its image behind and cannot throw, so containers
// move Programs instead of copying them.
static_assert(std::is_nothrow_move_constructible_v<Program>);

Program::ImageSlot &
Program::ImageSlot::operator=(const ImageSlot &) noexcept {
  delete Image.exchange(nullptr);
  return *this;
}

Program::ImageSlot::~ImageSlot() { delete Image.load(); }

const MethodImage &Program::image() const {
  if (const MethodImage *Published =
          Built.Image.load(std::memory_order_acquire))
    return *Published;
  auto Mine = std::make_unique<const MethodImage>(*this);
  const MethodImage *Expected = nullptr;
  if (Built.Image.compare_exchange_strong(Expected, Mine.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
    return *Mine.release();
  return *Expected;
}

ClassId Program::addClass(Klass K) {
  ClassId Id = static_cast<ClassId>(Classes.size());
  K.Id = Id;
  Classes.push_back(std::move(K));
  return Id;
}

MethodId Program::addMethod(Method M) {
  MethodId Id = static_cast<MethodId>(Methods.size());
  M.Id = Id;
  if (M.OverrideRoot == InvalidMethodId)
    M.OverrideRoot = Id;
  assert(M.Owner < Classes.size() && "method owner not registered");
  Classes[M.Owner].Methods.push_back(Id);
  Methods.push_back(std::move(M));
  return Id;
}

std::string Program::qualifiedName(MethodId Id) const {
  const Method &M = method(Id);
  return klass(M.Owner).Name + "." + M.Name;
}

uint64_t Program::totalBytecodes() const {
  uint64_t Total = 0;
  for (const Method &M : Methods)
    Total += M.bytecodeCount();
  return Total;
}

MethodId Program::findMethod(const std::string &Qualified) const {
  for (const Method &M : Methods)
    if (qualifiedName(M.id()) == Qualified)
      return M.id();
  return InvalidMethodId;
}
