// An open-addressed hash index of heap blocks, shared by the slate cache
// (core/slate_cache.cc) and the kvstore memtable (kvstore/memtable.cc).
//
// The index is a power-of-two array of 8-byte slots, probed linearly. A
// slot holds a block's address in its low 48 bits under the top 16 bits of
// the block's 64-bit hash (the tag), so a probe rejects most other blocks
// without touching them; 0 is an empty slot. A block's home slot is the top
// bits of its hash. The array starts empty, doubles before it would pass
// 3/4 full, and Reset() frees it. Callers own the blocks, give the hash of
// each block they add, and do their own locking (DESIGN.md, "Slate cache
// layout").
#ifndef MUPPET_COMMON_TAGGED_INDEX_H_
#define MUPPET_COMMON_TAGGED_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace muppet {

template <typename Block>
class TaggedIndex {
 public:
  size_t size() const { return size_; }
  // Slots in the array (0 until the first Insert).
  size_t slot_count() const { return slots_.size(); }

  // The block in slot `i`, or nullptr for an empty slot.
  Block* at(size_t i) const { return BlockOf(slots_[i]); }

  // The slot holding the block under `hash`'s tag that `is_match` accepts,
  // or the empty slot that ends its probe run. Requires slot_count() > 0.
  template <typename IsMatch>
  size_t Probe(uint64_t hash, IsMatch is_match) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t tag = hash & ~kAddressMask;
    for (size_t i = static_cast<size_t>(hash >> shift_);; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == 0) return i;
      if ((slot & ~kAddressMask) == tag && is_match(BlockOf(slot))) return i;
    }
  }

  // Probe's block, or nullptr.
  template <typename IsMatch>
  Block* Find(uint64_t hash, IsMatch is_match) const {
    if (size_ == 0) return nullptr;
    return at(Probe(hash, is_match));
  }

  // Adds `block` under `hash`; no indexed block may match it. Doubles the
  // array first if the add would fill it past 3/4, which rehomes every
  // block: `hash_of(block)` must return the hash a block was added under.
  template <typename HashOf>
  void Insert(uint64_t hash, const Block* block, HashOf hash_of) {
    if (4 * (size_ + 1) > 3 * slots_.size()) Grow(hash_of);
    slots_[FirstEmptyFrom(static_cast<size_t>(hash >> shift_))] =
        SlotFor(hash, block);
    ++size_;
  }

  // Points slot `i` at `block`, which replaces the block there under the
  // same hash.
  void Replace(size_t i, const Block* block) {
    slots_[i] = SlotFor(slots_[i], block);
  }

  // Home slot of the block in slot `i`. Up to 2^16 slots the tag holds
  // every bit of it; past that it comes from hash_of(block).
  template <typename HashOf>
  size_t Home(size_t i, HashOf hash_of) const {
    return HomeOf(slots_[i], hash_of);
  }

  // Removal primitives: copy slot `from` over slot `to`; empty slot `i`,
  // dropping its block from the count.
  void Move(size_t from, size_t to) { slots_[to] = slots_[from]; }
  void Vacate(size_t i) {
    slots_[i] = 0;
    --size_;
  }

  // Forgets every block (the caller frees them) and frees the array.
  void Reset() {
    std::vector<uint64_t>().swap(slots_);
    shift_ = 64;
    size_ = 0;
  }

 private:
  static constexpr int kTagShift = 48;
  static constexpr uint64_t kAddressMask = (uint64_t{1} << kTagShift) - 1;
  static constexpr size_t kMinSlots = 16;

  static Block* BlockOf(uint64_t slot) {
    return reinterpret_cast<Block*>(
        static_cast<uintptr_t>(slot & kAddressMask));
  }

  // The address of `block` under the top 16 bits of `hash`.
  static uint64_t SlotFor(uint64_t hash, const Block* block) {
    const auto address = reinterpret_cast<uintptr_t>(block);
    MUPPET_CHECK((address & ~kAddressMask) == 0) << "heap address above 2^48";
    return (hash & ~kAddressMask) | address;
  }

  template <typename HashOf>
  void Grow(HashOf hash_of) {
    const size_t n = slots_.empty() ? kMinSlots : 2 * slots_.size();
    std::vector<uint64_t> old = std::exchange(slots_, std::vector<uint64_t>(n));
    shift_ = 64 - std::countr_zero(n);
    for (uint64_t slot : old) {
      if (slot != 0) slots_[FirstEmptyFrom(HomeOf(slot, hash_of))] = slot;
    }
  }

  template <typename HashOf>
  size_t HomeOf(uint64_t slot, HashOf hash_of) const {
    const uint64_t hash = shift_ >= kTagShift ? slot : hash_of(BlockOf(slot));
    return static_cast<size_t>(hash >> shift_);
  }

  size_t FirstEmptyFrom(size_t i) const {
    while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
    return i;
  }

  std::vector<uint64_t> slots_;
  int shift_ = 64;  // a block's home slot is hash >> shift_
  size_t size_ = 0;
};

}  // namespace muppet

#endif  // MUPPET_COMMON_TAGGED_INDEX_H_
