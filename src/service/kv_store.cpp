#include "service/kv_store.hpp"

#include <bit>

#include "common/error.hpp"

namespace rcp::service {

namespace {
constexpr std::size_t kMinTable = 64;
using detail::mix64;

/// The table key: keys are namespaced per stream.
constexpr std::uint64_t composite_key(std::uint32_t stream,
                                      std::uint32_t key) noexcept {
  return (static_cast<std::uint64_t>(stream) << 32) | key;
}

constexpr std::uint64_t fold_entry(std::uint64_t key,
                                   std::uint32_t value) noexcept {
  return mix64(key ^ (static_cast<std::uint64_t>(value) * 0x9e3779b97f4a7c15ULL));
}
}  // namespace

KvStore::KvStore(std::uint32_t streams, bool keep_log)
    : table_(kMinTable),
      chains_(streams, 0),
      stream_applied_(streams, 0),
      keep_log_(keep_log) {
  if (keep_log_) {
    logs_.resize(streams);
  }
}

std::size_t KvStore::probe(std::uint64_t key) const noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = mix64(key) & mask;
  while (table_[i].used && table_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void KvStore::reserve_for(std::size_t extra) {
  // Grow at 70% load so probe runs stay short.
  std::size_t size = table_.size();
  while ((used_ + extra) * 10 >= size * 7) {
    size *= 2;
  }
  if (size == table_.size()) {
    return;
  }
  std::vector<Slot> old = std::move(table_);
  table_ = std::vector<Slot>(size);
  for (const Slot& s : old) {
    if (s.used) {
      table_[probe(s.key)] = s;
    }
  }
}

void KvStore::apply(std::uint32_t stream, std::uint64_t seq, KvOp op) {
  const Write w{stream, seq, op};
  apply_all(std::span<const Write>(&w, 1));
}

void KvStore::apply_all(std::span<const Write> writes) {
  // Worst case every write is a new key; the table layout is not
  // observable, so growing for it early changes nothing but memory.
  reserve_for(writes.size());
  const std::size_t mask = table_.size() - 1;
  for (const Write& w : writes) {
    RCP_EXPECT(w.stream < chains_.size(), "KvStore: stream out of range");
    __builtin_prefetch(&table_[mix64(composite_key(w.stream, w.op.key)) & mask],
                       /*rw=*/1);
  }
  for (const Write& w : writes) {
    const std::uint64_t composite = composite_key(w.stream, w.op.key);
    Slot& slot = table_[probe(composite)];
    if (slot.used) {
      state_fold_ -= fold_entry(composite, slot.value);
      slot.value = w.op.value;
    } else {
      slot = Slot{composite, w.op.value, true};
      ++used_;
    }
    state_fold_ += fold_entry(composite, w.op.value);
    chains_[w.stream] =
        mix64(chains_[w.stream] ^ mix64(w.seq + 1) ^ mix64(pack_op(w.op)));
    ++stream_applied_[w.stream];
    ++applied_;
    if (keep_log_) {
      logs_[w.stream].emplace_back(w.seq, pack_op(w.op));
    }
  }
}

std::optional<std::uint32_t> KvStore::get(std::uint32_t stream,
                                          std::uint32_t key) const {
  const std::size_t i = probe(composite_key(stream, key));
  if (!table_[i].used) {
    return std::nullopt;
  }
  return table_[i].value;
}

std::uint64_t KvStore::digest() const noexcept {
  std::uint64_t h = mix64(applied_ ^ (state_fold_ * 0x9e3779b97f4a7c15ULL));
  for (std::size_t s = 0; s < chains_.size(); ++s) {
    h = mix64(h ^ mix64(chains_[s] + s));
  }
  return h;
}

}  // namespace rcp::service
