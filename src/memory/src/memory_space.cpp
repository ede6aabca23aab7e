#include "mlm/memory/memory_space.h"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "mlm/fault/fault.h"
#include "mlm/support/cache_line.h"

namespace mlm {

const char* to_string(MemKind kind) {
  switch (kind) {
    case MemKind::DDR: return "DDR";
    case MemKind::MCDRAM: return "MCDRAM";
    case MemKind::NVM: return "NVM";
  }
  return "?";
}

MemKind mem_kind_from_string(const std::string& name) {
  if (name == "DDR") return MemKind::DDR;
  if (name == "MCDRAM") return MemKind::MCDRAM;
  if (name == "NVM") return MemKind::NVM;
  throw InvalidArgumentError("unknown MemKind name: " + name);
}

namespace {
constexpr std::size_t kAlignment = kCacheLineBytes;

std::size_t aligned_size(std::size_t bytes) {
  // Zero-byte allocations still get a distinct pointer (like malloc(0)
  // with glibc) so RAII wrappers stay uniform.
  if (bytes == 0) bytes = 1;
  return round_up(bytes, kAlignment);
}
}  // namespace

struct MemorySpace::Impl {
  mutable std::mutex mu;
  std::unordered_map<void*, std::size_t> live;
  std::uint64_t used = 0;
  std::uint64_t high_water = 0;
  std::uint64_t total_allocations = 0;
  /// Sub-arena mode: allocations are forwarded here instead of the host
  /// heap, so the parent's accounting (and real capacity) still governs.
  MemorySpace* parent = nullptr;
};

MemorySpace::MemorySpace(std::string name, MemKind kind,
                         std::uint64_t capacity_bytes)
    : name_(std::move(name)),
      kind_(kind),
      capacity_(capacity_bytes),
      impl_(std::make_unique<Impl>()) {}

MemorySpace::MemorySpace(std::string name, MemorySpace& parent,
                         std::uint64_t budget_bytes)
    : name_(std::move(name)),
      kind_(parent.kind()),
      capacity_(budget_bytes),
      impl_(std::make_unique<Impl>()) {
  impl_->parent = &parent;
}

MemorySpace::~MemorySpace() {
  // Leaked allocations are a program bug but freeing them here would hide
  // double-free errors; release the backing memory (returning it to the
  // parent arena for a sub-arena, so tenant accounting stays exact) and
  // move on.
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [p, bytes] : impl_->live) {
    if (impl_->parent != nullptr) {
      impl_->parent->deallocate(p);
    } else {
      std::free(p);
    }
  }
}

MemorySpace* MemorySpace::parent() const { return impl_->parent; }

void* MemorySpace::allocate(std::size_t bytes) {
  void* p = try_allocate(bytes);
  if (p == nullptr) {
    std::ostringstream os;
    os << "MemorySpace '" << name_ << "' (" << to_string(kind_)
       << (impl_->parent != nullptr ? ", sub-arena of '" +
                                          impl_->parent->name() + "'"
                                    : std::string())
       << ") cannot allocate " << bytes << " bytes: used "
       << stats().used_bytes << " of " << capacity_ << " capacity";
    // A sub-arena also fails when a space it forwards to is full, which
    // its own figures cannot show; name every ancestor's usage too.
    for (const MemorySpace* up = impl_->parent; up != nullptr;
         up = up->parent()) {
      os << "; parent '" << up->name() << "' (" << to_string(up->kind())
         << ") used " << up->stats().used_bytes << " of "
         << up->capacity_bytes() << " capacity";
    }
    throw OutOfMemoryError(os.str());
  }
  return p;
}

void* MemorySpace::try_allocate(std::size_t bytes) noexcept {
  // Simulated arena exhaustion (the BIND-policy failure mode): the
  // throwing allocate() overload turns this into OutOfMemoryError.  A
  // sub-arena skips the query — its forwarded parent allocation performs
  // it, so one logical allocation stays one site query.
  static fault::FaultSite fault_site(fault::sites::kMemorySpaceAllocate);
  if (impl_->parent == nullptr && fault_site.should_fire()) return nullptr;
  const std::size_t asize = aligned_size(bytes);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (capacity_ != 0 && impl_->used + asize > capacity_) return nullptr;
    impl_->used += asize;  // reserve before the (slow) host allocation
    impl_->high_water = std::max(impl_->high_water, impl_->used);
    ++impl_->total_allocations;
  }
  void* p = impl_->parent != nullptr
                ? impl_->parent->try_allocate(bytes)
                : std::aligned_alloc(kAlignment, asize);
  if (p == nullptr) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->used -= asize;
    --impl_->total_allocations;
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->live.emplace(p, asize);
  }
  return p;
}

void MemorySpace::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  std::size_t asize = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->live.find(p);
    if (it == impl_->live.end()) return;  // not ours / double free: no-op
    asize = it->second;
    impl_->live.erase(it);
    impl_->used -= asize;
  }
  if (impl_->parent != nullptr) {
    impl_->parent->deallocate(p);
  } else {
    std::free(p);
  }
}

bool MemorySpace::owns(const void* p) const {
  if (p == nullptr) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->live.count(const_cast<void*>(p)) != 0;
}

bool MemorySpace::would_fit(std::size_t bytes) const {
  if (capacity_ == 0) return true;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->used + aligned_size(bytes) <= capacity_;
}

SpaceStats MemorySpace::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  SpaceStats s;
  s.capacity_bytes = capacity_;
  s.used_bytes = impl_->used;
  s.high_water_bytes = impl_->high_water;
  s.allocation_count = impl_->live.size();
  s.total_allocations = impl_->total_allocations;
  return s;
}

void MemorySpace::reset_high_water() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->high_water = impl_->used;
}

}  // namespace mlm
