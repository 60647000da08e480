#include "bitmask/hierarchical_bitmask.h"

namespace spangle {

HierarchicalBitmask HierarchicalBitmask::FromBitmask(const Bitmask& flat) {
  HierarchicalBitmask out;
  out.num_bits_ = flat.num_bits();
  out.upper_ = Bitmask(flat.num_words());
  uint32_t running = 0;
  for (size_t w = 0; w < flat.num_words(); ++w) {
    const uint64_t word = flat.word(w);
    if (word != 0) {
      out.upper_.Set(w);
      out.lower_.push_back(word);
      out.lower_prefix_.push_back(running);
      running += static_cast<uint32_t>(CountWord(word));
    }
  }
  out.upper_.BuildMilestones();
  return out;
}

HierarchicalBitmask HierarchicalBitmask::FromSortedBits(
    size_t num_bits, const std::vector<uint32_t>& bits) {
  HierarchicalBitmask out;
  out.num_bits_ = num_bits;
  out.upper_ = Bitmask((num_bits + Bitmask::kBitsPerWord - 1) /
                       Bitmask::kBitsPerWord);
  uint32_t running = 0;
  for (size_t i = 0; i < bits.size();) {
    SPANGLE_DCHECK(bits[i] < num_bits);
    const size_t w = bits[i] / Bitmask::kBitsPerWord;
    uint64_t word = 0;
    for (; i < bits.size() && bits[i] / Bitmask::kBitsPerWord == w; ++i) {
      word |= uint64_t{1} << (bits[i] % Bitmask::kBitsPerWord);
    }
    out.upper_.Set(w);
    out.lower_.push_back(word);
    out.lower_prefix_.push_back(running);
    running += static_cast<uint32_t>(CountWord(word));
  }
  out.upper_.BuildMilestones();
  return out;
}

Bitmask HierarchicalBitmask::ToBitmask() const {
  Bitmask flat(num_bits_);
  size_t stored = 0;
  for (size_t w = 0; w < upper_.num_bits(); ++w) {
    if (upper_.Test(w)) {
      uint64_t bits = lower_[stored++];
      const size_t base = w * Bitmask::kBitsPerWord;
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        flat.Set(base + static_cast<size_t>(tz));
        bits &= bits - 1;
      }
    }
  }
  return flat;
}

bool HierarchicalBitmask::Test(size_t i) const {
  SPANGLE_DCHECK(i < num_bits_);
  const size_t word_idx = i / Bitmask::kBitsPerWord;
  if (!upper_.Test(word_idx)) return false;
  const uint64_t stored = upper_.Rank(word_idx);
  return (lower_[stored] >> (i % Bitmask::kBitsPerWord)) & 1u;
}

uint64_t HierarchicalBitmask::Rank(size_t i) const {
  SPANGLE_DCHECK(i <= num_bits_);
  const size_t word_idx = i / Bitmask::kBitsPerWord;
  const size_t bound = std::min(word_idx, upper_.num_bits());
  const uint64_t stored = upper_.Rank(bound);
  uint64_t count = (stored == 0) ? 0
                                 : lower_prefix_[stored - 1] +
                                       CountWord(lower_[stored - 1]);
  const size_t tail = i % Bitmask::kBitsPerWord;
  if (tail != 0 && word_idx < upper_.num_bits() && upper_.Test(word_idx)) {
    count += CountWord(lower_[stored] & ((uint64_t{1} << tail) - 1));
  }
  return count;
}

uint64_t HierarchicalBitmask::CountAll() const {
  if (lower_.empty()) return 0;
  return lower_prefix_.back() + CountWord(lower_.back());
}

size_t HierarchicalBitmask::SelectSetBit(uint64_t k) const {
  uint64_t remaining = k;
  size_t stored = 0;
  size_t result = num_bits_;
  bool found = false;
  upper_.ForEachSetBit([&](size_t upper_idx) {
    if (found) return;
    const uint64_t c = static_cast<uint64_t>(CountWord(lower_[stored]));
    if (remaining < c) {
      uint64_t bits = lower_[stored];
      for (uint64_t j = 0; j < remaining; ++j) bits &= bits - 1;
      result = upper_idx * Bitmask::kBitsPerWord +
               static_cast<size_t>(__builtin_ctzll(bits));
      found = true;
      return;
    }
    remaining -= c;
    ++stored;
  });
  return result;
}

}  // namespace spangle
