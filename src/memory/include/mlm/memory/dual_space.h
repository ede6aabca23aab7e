// DualSpace: the DDR + MCDRAM pair a chunked algorithm runs against,
// configured for one of the KNL MCDRAM usage modes.
//
// In flat mode the full 16 GB of MCDRAM is an addressable scratchpad.
// In hybrid mode only the flat fraction is addressable; the rest serves
// the hardware cache.  In (implicit) cache mode and DDR-only mode there
// is no addressable MCDRAM at all — algorithms allocate from DDR and the
// (modeled or real) hardware cache provides any speedup.
//
// DualSpace is a compatibility view over a two-tier MemoryHierarchy
// (mlm/memory/memory_hierarchy.h): it either owns a hierarchy built from
// its config, or aliases two adjacent tiers of a larger one (this is how
// ExternalMlmSorter hands the DDR+MCDRAM pair of a three-tier hierarchy
// to its inner MlmSorter).  New code should program against
// MemoryHierarchy / TierPair directly.
#pragma once

#include <cstdint>
#include <memory>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/memory/memory_space.h"

namespace mlm {

/// Configuration for a DualSpace.
struct DualSpaceConfig {
  McdramMode mode = McdramMode::Flat;
  /// Physical MCDRAM size (KNL: 16 GiB).
  std::uint64_t mcdram_bytes = 16ull << 30;
  /// Fraction of MCDRAM used as scratchpad in Hybrid mode (KNL BIOS
  /// offers 25%, 50%, 75%; the paper's hybrid runs used 50%).
  double hybrid_flat_fraction = 0.5;
  /// DDR capacity; 0 = unlimited.
  std::uint64_t ddr_bytes = 0;
};

/// The memory environment of one KNL node under a given usage mode:
/// a two-tier (DDR -> MCDRAM) hierarchy view.
class DualSpace {
 public:
  explicit DualSpace(const DualSpaceConfig& config);

  /// Non-owning view over the adjacent tier pair of `hierarchy` whose
  /// far side is tier `far_level` (the nearer tier plays the MCDRAM
  /// role).  The hierarchy must outlive the view.
  DualSpace(MemoryHierarchy& hierarchy, std::size_t far_level);

  const DualSpaceConfig& config() const { return config_; }
  McdramMode mode() const { return config_.mode; }

  /// The underlying hierarchy (two tiers when self-owned).
  MemoryHierarchy& hierarchy() { return *hier_; }
  const MemoryHierarchy& hierarchy() const { return *hier_; }

  /// The (far, near) pair chunked algorithms stream across.
  TierPair tier_pair() { return hier_->pair(far_level_); }

  MemorySpace& ddr() { return hier_->tier(far_level_); }
  const MemorySpace& ddr() const { return hier_->tier(far_level_); }

  /// The addressable MCDRAM space.  Throws Error if the current mode has
  /// no addressable MCDRAM (Cache / ImplicitCache / DdrOnly).
  MemorySpace& mcdram() { return hier_->tier(far_level_ + 1); }
  const MemorySpace& mcdram() const { return hier_->tier(far_level_ + 1); }

  bool has_addressable_mcdram() const {
    return hier_->tier_addressable(far_level_ + 1);
  }

  /// Bytes of addressable MCDRAM under the configured mode
  /// (0 in Cache/ImplicitCache/DdrOnly modes).
  std::uint64_t addressable_mcdram_bytes() const {
    return hier_->addressable_bytes(far_level_ + 1);
  }

  /// Bytes of MCDRAM acting as hardware cache under the configured mode.
  std::uint64_t cache_mcdram_bytes() const {
    return hier_->cache_bytes(far_level_ + 1);
  }

  /// The space chunked algorithms should place their working buffers in:
  /// MCDRAM when addressable, DDR otherwise (implicit mode relies on the
  /// hardware cache to accelerate those DDR accesses).
  MemorySpace& near_space();

 private:
  DualSpaceConfig config_;
  std::unique_ptr<MemoryHierarchy> owned_;
  MemoryHierarchy* hier_ = nullptr;
  std::size_t far_level_ = 0;
};

}  // namespace mlm
