// ring.hpp — a FIFO ring of fixed-size blocks for move-only elements.
//
// Built for the link's per-direction packet queues, which see one push and
// one pop per packet hop. Elements live in blocks of kBlockSlots; a
// power-of-two map of block pointers turns a logical index into
// (block, offset) with two masks. A block leaves the ring as soon as the
// head walks off its end and rejoins at the tail through one cached spare
// block, so a queue that cycles at a steady depth, or drains between bursts
// of up to kBlockSlots elements, never touches the heap. std::deque, by
// contrast, frees and allocates a node every two packet-sized elements.
//
// Memory follows the live depth: the ring holds the blocks its elements
// occupy plus the spare, so a drained ring keeps one block. Growing past the
// map copies block pointers only — no element moves, and no second buffer
// the size of the queue is held while one grows. (A contiguous doubling
// buffer holds a queue at up to twice its depth and keeps each drained
// direction's buffer: ~0.4 MB more peak RSS on a two-worker interactive_apps
// perfbench batch, 4-core Intel Xeon.)
// Deliberately minimal — only the operations the link uses.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace slp::util {

template <typename T>
class Ring {
 public:
  /// Elements per block (a power of two).
  static constexpr std::size_t kBlockSlots = 16;

  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  ~Ring() {
    clear();
    free_block(spare_);
    delete[] map_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots in blocks the ring holds: occupied blocks plus the spare.
  [[nodiscard]] std::size_t capacity() const {
    return (used_blocks_ + (spare_ != nullptr ? 1 : 0)) * kBlockSlots;
  }

  /// Element `i` counted from the front (0 = oldest).
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return *slot((head_ + i) & mask_);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return *slot((head_ + i) & mask_);
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    // One block slot always stays free beyond the live range, so the tail
    // never wraps into the head's block.
    if (size_ + 1 + kBlockSlots > map_blocks_ * kBlockSlots) grow_map();
    const std::size_t pos = (head_ + size_) & mask_;
    T*& block = map_[pos / kBlockSlots];
    if (block == nullptr) {
      block = take_block();
      ++used_blocks_;
    }
    T* p = ::new (static_cast<void*>(block + pos % kBlockSlots)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  /// Inserts `v` before element `pos` (pos == size() appends), shifting the
  /// tail back by one. Elements already at or after `pos` keep their
  /// relative order, so scanning back from the tail for the insertion point
  /// gives a stable sorted insert.
  void insert(std::size_t pos, T&& v) {
    assert(pos <= size_);
    if (pos == size_) {
      emplace_back(std::move(v));
      return;
    }
    emplace_back(std::move(back()));
    for (std::size_t i = size_ - 2; i > pos; --i) (*this)[i] = std::move((*this)[i - 1]);
    (*this)[pos] = std::move(v);
  }

  void pop_front() {
    assert(size_ > 0);
    const std::size_t pos = head_;
    slot(pos)->~T();
    head_ = (head_ + 1) & mask_;
    --size_;
    // The head walked off its block's end, or nothing is left in it.
    if (pos % kBlockSlots == kBlockSlots - 1 || size_ == 0) release(pos);
    if (size_ == 0) head_ = 0;
  }

  void pop_back() {
    assert(size_ > 0);
    const std::size_t pos = (head_ + size_ - 1) & mask_;
    slot(pos)->~T();
    --size_;
    if (pos % kBlockSlots == 0 || size_ == 0) release(pos);
    if (size_ == 0) head_ = 0;
  }

  /// Destroys every element.
  void clear() {
    while (size_ > 0) pop_back();
  }

 private:
  [[nodiscard]] T* slot(std::size_t pos) const { return map_[pos / kBlockSlots] + pos % kBlockSlots; }

  /// Detaches the (now empty) block holding `pos`: it becomes the spare,
  /// or is freed when there already is one.
  void release(std::size_t pos) {
    T*& block = map_[pos / kBlockSlots];
    if (spare_ == nullptr) {
      spare_ = block;
    } else {
      free_block(block);
    }
    block = nullptr;
    --used_blocks_;
  }

  T* take_block() {
    if (spare_ == nullptr) return std::allocator<T>{}.allocate(kBlockSlots);
    return std::exchange(spare_, nullptr);
  }

  static void free_block(T* block) {
    if (block != nullptr) std::allocator<T>{}.deallocate(block, kBlockSlots);
  }

  /// Doubles the block map, laying the occupied blocks out from slot 0 in
  /// logical order. Elements stay where they are.
  void grow_map() {
    const std::size_t blocks = map_blocks_ == 0 ? 2 : map_blocks_ * 2;
    T** map = new T*[blocks]();
    const std::size_t first = head_ / kBlockSlots;
    for (std::size_t i = 0; i < map_blocks_; ++i) map[i] = map_[(first + i) & (map_blocks_ - 1)];
    delete[] map_;
    map_ = map;
    map_blocks_ = blocks;
    mask_ = blocks * kBlockSlots - 1;
    head_ %= kBlockSlots;
  }

  T** map_ = nullptr;           ///< map_blocks_ block pointers; null = no live element
  std::size_t map_blocks_ = 0;  ///< a power of two (or 0 before the first push)
  std::size_t mask_ = 0;        ///< map_blocks_ * kBlockSlots - 1
  std::size_t head_ = 0;        ///< slot index of the front element
  std::size_t size_ = 0;
  std::size_t used_blocks_ = 0;
  T* spare_ = nullptr;  ///< an empty block kept for the next tail crossing
};

}  // namespace slp::util
