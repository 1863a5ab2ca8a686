// Dynamic bit set sized at runtime.
//
// The scheduler manipulates sets of actions (scheduled, skipped, candidate,
// dependency rows) on every search step; a packed bit set keeps those
// operations O(N/64). Every member operation, and copy-assignment between
// sets of equal size, is allocation-free after construction; only the
// value-returning operators (`|`, `&`, `-`), copy-construction and
// `to_vector` allocate.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace icecube {

/// Fixed-capacity bit set whose size is chosen at construction.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  void set(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }
  void reset(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  [[nodiscard]] bool any() const {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }
  [[nodiscard]] bool none() const { return !any(); }

  Bitset& operator|=(const Bitset& o) {
    assert(size_ == o.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  Bitset& operator&=(const Bitset& o) {
    assert(size_ == o.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }
  /// Set difference: remove every bit that is set in `o`.
  Bitset& operator-=(const Bitset& o) {
    assert(size_ == o.size_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator-(Bitset a, const Bitset& b) { return a -= b; }

  friend bool operator==(const Bitset& a, const Bitset& b) = default;

  /// True iff this set and `o` share no elements.
  [[nodiscard]] bool disjoint(const Bitset& o) const {
    assert(size_ == o.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & o.words_[i]) return false;
    return true;
  }

  /// True iff every element of this set is also in `o`.
  [[nodiscard]] bool subset_of(const Bitset& o) const {
    assert(size_ == o.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~o.words_[i]) return false;
    return true;
  }

  /// True iff this set and `o` share an element other than `skip`.
  [[nodiscard]] bool intersects_except(const Bitset& o,
                                       std::size_t skip) const {
    assert(size_ == o.size_ && skip < size_);
    const std::size_t skip_word = skip >> 6;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t common = words_[i] & o.words_[i];
      if (i == skip_word) common &= ~(1ULL << (skip & 63));
      if (common != 0) return true;
    }
    return false;
  }

  /// Index of the `k`-th set bit in increasing order (0-based); requires
  /// `k < count()`.
  [[nodiscard]] std::size_t nth_set(std::size_t k) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      const auto in_word = static_cast<std::size_t>(__builtin_popcountll(w));
      if (k >= in_word) {
        k -= in_word;
        continue;
      }
      for (; k > 0; --k) w &= w - 1;
      return wi * 64 + static_cast<std::size_t>(__builtin_ctzll(w));
    }
    assert(false && "nth_set: k >= count()");
    return size_;
  }

  /// Invoke `fn(index)` for every set bit, in increasing index order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(wi * 64 + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Indices of all set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> to_vector() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for_each([&out](std::size_t i) { out.push_back(i); });
    return out;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace icecube
