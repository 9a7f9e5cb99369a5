#include "index/lsh.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace bees::idx {

namespace {

constexpr std::size_t kInitialSlots = 16;
// 2^64 / golden ratio: the high bits of key * kHashMul spread dense and
// strided keys alike over the slot array.
constexpr std::uint64_t kHashMul = 0x9E3779B97F4A7C15ULL;
// Probes between a home-slot prefetch and the lookup that reads it.
constexpr std::size_t kPrefetchDistance = 8;

}  // namespace

std::size_t DescriptorLsh::Table::home(std::uint32_t key) const noexcept {
  return static_cast<std::size_t>((key * kHashMul) >> shift);
}

DescriptorLsh::Slot& DescriptorLsh::Table::find_or_claim(std::uint32_t key) {
  if (slots.empty()) {
    slots.resize(kInitialSlots);
    shift = 64 - std::countr_zero(kInitialSlots);
  }
  std::size_t mask = slots.size() - 1;
  std::size_t i = home(key);
  for (; slots[i].count != 0; i = (i + 1) & mask) {
    if (slots[i].key == key) return slots[i];
  }
  if ((used + 1) * 4 > slots.size() * 3) {
    grow();
    mask = slots.size() - 1;
    for (i = home(key); slots[i].count != 0; i = (i + 1) & mask) {
    }
  }
  ++used;
  slots[i].key = key;
  return slots[i];
}

void DescriptorLsh::Table::grow() {
  std::vector<Slot> old(slots.size() * 2);
  old.swap(slots);
  --shift;
  const std::size_t mask = slots.size() - 1;
  for (Slot& slot : old) {
    if (slot.count == 0) continue;
    std::size_t i = home(slot.key);
    while (slots[i].count != 0) i = (i + 1) & mask;
    slots[i] = std::move(slot);
  }
}

DescriptorLsh::DescriptorLsh(const LshParams& params)
    : bits_per_key_(params.bits_per_key) {
  if (params.tables <= 0 || params.bits_per_key <= 0 ||
      params.bits_per_key > 32) {
    throw std::invalid_argument("DescriptorLsh: bad parameters");
  }
  util::Rng rng(params.seed);
  positions_.resize(static_cast<std::size_t>(params.tables));
  tables_.resize(static_cast<std::size_t>(params.tables));
  for (auto& pos : positions_) {
    // Sample k distinct bit positions per table.
    std::vector<int> all(256);
    std::iota(all.begin(), all.end(), 0);
    rng.shuffle(all);
    pos.assign(all.begin(), all.begin() + params.bits_per_key);
  }
}

std::uint32_t DescriptorLsh::key_for(const feat::Descriptor256& d,
                                     std::size_t table) const noexcept {
  std::uint32_t key = 0;
  for (const int bit : positions_[table]) {
    key = (key << 1) | (d.get_bit(bit) ? 1u : 0u);
  }
  return key;
}

void DescriptorLsh::insert(const feat::Descriptor256& d,
                           std::uint32_t payload) {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    Slot& slot = tables_[t].find_or_claim(key_for(d, t));
    // Per-bucket payload dedup.  One image's descriptors are inserted
    // back-to-back, so a repeat collision of the same image in this bucket
    // is always at the tail; skipping it keeps vote() from inflating
    // descriptor-dense images and shrinks bucket storage.
    if (slot.count != 0 && slot.payloads[slot.count - 1] == payload) continue;
    if ((slot.count & (slot.count - 1)) == 0) {
      // The array is full (0 or a power of two): double it.
      auto grown = std::make_unique_for_overwrite<std::uint32_t[]>(
          std::bit_ceil(slot.count + 1));
      std::copy_n(slot.payloads.get(), slot.count, grown.get());
      slot.payloads = std::move(grown);
    }
    slot.payloads[slot.count++] = payload;
  }
  ++inserted_;
  payload_end_ = std::max(payload_end_, std::size_t{payload} + 1);
}

void DescriptorLsh::vote(std::span<const feat::Descriptor256> query,
                         std::vector<std::uint32_t>& votes) const {
  if (votes.size() < payload_end_) votes.resize(payload_end_, 0);
  if (inserted_ == 0 || query.empty()) return;
  // Every probe's key and home slot first, table-major, so the lookup
  // loop can prefetch the home slot kPrefetchDistance probes ahead — also
  // across a table boundary.  Every table holds a bucket once anything is
  // inserted, so every slot array is non-empty here.
  struct Probe {
    const Slot* home;
    std::uint32_t key;
  };
  const std::size_t n = query.size();
  std::vector<Probe> probes(tables_.size() * n);
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t key = key_for(query[i], t);
      probes[t * n + i] = {&table.slots[table.home(key)], key};
    }
  }
  for (std::size_t p = 0; p < std::min(kPrefetchDistance, probes.size());
       ++p) {
    __builtin_prefetch(probes[p].home);
  }
  std::uint32_t* const out = votes.data();
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const Slot* const begin = tables_[t].slots.data();
    const Slot* const end = begin + tables_[t].slots.size();
    for (std::size_t p = t * n; p < (t + 1) * n; ++p) {
      if (p + kPrefetchDistance < probes.size()) {
        __builtin_prefetch(probes[p + kPrefetchDistance].home);
      }
      const std::uint32_t key = probes[p].key;
      for (const Slot* slot = probes[p].home; slot->count != 0;) {
        if (slot->key == key) {
          const std::uint32_t* payloads = slot->payloads.get();
          for (std::uint32_t j = 0; j < slot->count; ++j) ++out[payloads[j]];
          break;
        }
        if (++slot == end) slot = begin;
      }
    }
  }
}

double DescriptorLsh::table_collision_probability(int hamming) const noexcept {
  const double p = 1.0 - static_cast<double>(hamming) / 256.0;
  return std::pow(p, bits_per_key_);
}

}  // namespace bees::idx
