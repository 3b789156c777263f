//===- vm/Heap.h - Objects and arrays ---------------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple never-freeing heap of objects and arrays. Garbage collection
/// is not modelled (DESIGN.md, "Substitutions"): storage is reclaimed by
/// the C++ destructor at the end of a run.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_VM_HEAP_H
#define AOCI_VM_HEAP_H

#include "bytecode/Instruction.h"
#include "vm/Value.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

namespace aoci {

/// One heap cell: an instance (slots are fields) or an array (slots are
/// elements). The slots live in the owning heap's arena and never move.
struct HeapObject {
  Value *Slots = nullptr;
  uint32_t Length = 0;
  ClassId Klass = InvalidClassId; ///< InvalidClassId for arrays.

  bool isArray() const { return Klass == InvalidClassId; }
};

// A jess run allocates about 56k objects: the record stays two words.
static_assert(sizeof(HeapObject) == 16, "HeapObject must pack into 16 bytes");

/// The VM heap.
class Heap {
public:
  /// Slots per arena chunk. Slots are bump-allocated from the newest
  /// chunk; an array longer than a chunk gets a block of its own.
  static constexpr uint32_t ChunkSlots = 4096;

  /// Allocates an instance of class \p K with \p NumFields
  /// zero/null-initialized fields.
  ObjectRef allocateObject(ClassId K, unsigned NumFields) {
    assert(K != InvalidClassId && "instances need a class");
    return push(K, NumFields);
  }

  /// Allocates an array of \p Length zero-initialized elements.
  ObjectRef allocateArray(unsigned Length) {
    return push(InvalidClassId, Length);
  }

  HeapObject &object(ObjectRef R) {
    assert(R < Objects.size() && "dangling object reference");
    return Objects[R];
  }

  const HeapObject &object(ObjectRef R) const {
    assert(R < Objects.size() && "dangling object reference");
    return Objects[R];
  }

  size_t numObjects() const { return Objects.size(); }

private:
  ObjectRef push(ClassId K, uint32_t Length) {
    Objects.push_back({allocateSlots(Length), Length, K});
    return static_cast<ObjectRef>(Objects.size() - 1);
  }

  /// \p N value-initialized (integer zero) slots.
  Value *allocateSlots(uint32_t N) {
    if (N > ChunkLeft) [[unlikely]]
      return allocateBlock(N);
    Value *Slots = ChunkNext;
    ChunkNext += N;
    ChunkLeft -= N;
    return Slots;
  }

  Value *allocateBlock(uint32_t N) {
    // A long array's block leaves the current chunk's tail in use;
    // otherwise the tail (under N slots) is abandoned for a new chunk.
    Value *Slots =
        Blocks.emplace_back(std::make_unique<Value[]>(std::max(N, ChunkSlots)))
            .get();
    if (N <= ChunkSlots) {
      ChunkNext = Slots + N;
      ChunkLeft = ChunkSlots - N;
    }
    return Slots;
  }

  std::vector<HeapObject> Objects;
  /// The arena: every chunk and long-array block, in allocation order.
  std::vector<std::unique_ptr<Value[]>> Blocks;
  Value *ChunkNext = nullptr;
  uint32_t ChunkLeft = 0;
};

} // namespace aoci

#endif // AOCI_VM_HEAP_H
