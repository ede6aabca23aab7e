// MemoryHierarchy: an ordered list of MemorySpace tiers, generalizing the
// two-level DDR+MCDRAM pair to the N-level settings the paper projects
// (§6: NVM under DDR under MCDRAM, "double levels of chunking").
//
// Tiers are ordered far -> near: tier 0 is the largest, slowest level the
// full data set resides in; the last tier is the small, fast level chunks
// are staged into.  Each tier carries the capacity and bandwidth
// parameters of one memory level; the same TierConfig list that builds a
// host hierarchy also parameterizes the knlsim projections (see
// mlm/machine/tier_params.h), so simulator and host code read one machine
// description.
//
// The KNL MCDRAM usage mode applies to the nearest tier when its kind is
// MCDRAM: in cache-like modes that tier has no addressable MemorySpace
// and chunked code processes data in place one level down, exactly as
// DualSpace behaves.  DualSpace is a thin compatibility view over a
// 2-tier hierarchy or two adjacent tiers of a larger one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mlm/memory/memory_space.h"

namespace mlm {

/// KNL MCDRAM BIOS usage modes plus the paper's two software-level modes.
enum class McdramMode : std::uint8_t {
  Flat,          ///< all MCDRAM addressable (scratchpad)
  Cache,         ///< all MCDRAM is a direct-mapped hardware cache
  Hybrid,        ///< part scratchpad, part hardware cache
  ImplicitCache, ///< chunked algorithm run under Cache mode (paper, §3.1)
  DdrOnly,       ///< MCDRAM unused (baseline "GNU-flat" / "MLM-ddr")
};

const char* to_string(McdramMode mode);

/// True for modes in which software may allocate MCDRAM directly.
bool mode_has_addressable_mcdram(McdramMode mode);

/// True for modes in which the hardware cache in front of DDR is active.
bool mode_has_hardware_cache(McdramMode mode);

/// One tier of a MemoryHierarchy.  Capacity governs the host arena; the
/// bandwidth fields are informational machine parameters consumed by the
/// analytic models and the simulator (host arenas do not throttle).
struct TierConfig {
  std::string name;
  MemKind kind = MemKind::DDR;
  /// Capacity; 0 = unlimited.
  std::uint64_t capacity_bytes = 0;
  /// Aggregate sequential read / write bandwidth (0 = unspecified).
  double read_bw = 0.0;
  double write_bw = 0.0;
  /// Per-thread copy rate to/from the next-nearer tier (0 = unspecified).
  double s_copy = 0.0;
};

/// Configuration of a MemoryHierarchy.
struct HierarchyConfig {
  /// Tiers ordered far -> near; at least one entry.
  std::vector<TierConfig> tiers;
  /// Usage mode applied to MCDRAM-kind tiers (mirrors DualSpaceConfig).
  McdramMode mode = McdramMode::Flat;
  /// Scratchpad fraction of an MCDRAM tier in Hybrid mode.
  double hybrid_flat_fraction = 0.5;
};

/// An adjacent (far, near) pair of tiers — the unit the chunk pipeline
/// streams across.  A null near tier means the pair has no addressable
/// staging level (cache-like modes): process data in place and let the
/// hardware cache move it.
struct TierPair {
  MemorySpace* far_tier = nullptr;
  MemorySpace* near_tier = nullptr;

  bool explicit_copies() const { return near_tier != nullptr; }
};

/// Ordered far -> near stack of capacity-limited memory spaces.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  /// Per-job budgeted view of `parent`: tier `i` becomes a budgeted
  /// sub-arena of the parent's tier `i` (see the MemorySpace sub-arena
  /// constructor), capped so that `budgets[i]` bytes is the view's tier
  /// capacity (0 or missing = share the parent tier's full capacity).
  /// Non-addressable tiers stay non-addressable; `label` prefixes the
  /// sub-arena names ("job3/mcdram").  Allocations through the view are
  /// accounted in the parent, so the sum of all tenants still honours
  /// the real arena.  The parent must outlive the view.
  MemoryHierarchy(MemoryHierarchy& parent,
                  const std::vector<std::uint64_t>& budgets,
                  const std::string& label);

  MemoryHierarchy(const MemoryHierarchy&) = delete;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;

  const HierarchyConfig& config() const { return config_; }
  McdramMode mode() const { return config_.mode; }

  std::size_t tier_count() const { return config_.tiers.size(); }
  /// Number of adjacent tier pairs a chunk pipeline can stream across.
  std::size_t pair_count() const { return tier_count() - 1; }

  const TierConfig& tier_config(std::size_t level) const;

  /// Whether software can allocate from tier `level` under the mode.
  bool tier_addressable(std::size_t level) const;

  /// Bytes of tier `level` software can allocate (0 when the mode makes
  /// the tier cache-only, the flat fraction for hybrid MCDRAM).
  std::uint64_t addressable_bytes(std::size_t level) const;

  /// Bytes of tier `level` acting as hardware cache under the mode.
  std::uint64_t cache_bytes(std::size_t level) const;

  /// The arena of tier `level` (0 = farthest).  Throws Error when the
  /// mode leaves the tier without addressable memory.
  MemorySpace& tier(std::size_t level);
  const MemorySpace& tier(std::size_t level) const;

  MemorySpace& farthest() { return tier(0); }

  /// The nearest tier software can allocate working buffers in — the
  /// last addressable tier (implicit/cache modes skip the MCDRAM tier,
  /// matching DualSpace::near_space()).
  MemorySpace& nearest_addressable();

  /// The adjacent pair whose far side is tier `far_level`.  The near
  /// side is null when tier `far_level + 1` is not addressable.
  TierPair pair(std::size_t far_level);

 private:
  HierarchyConfig config_;
  std::vector<std::unique_ptr<MemorySpace>> spaces_;  // null if !addressable
};

}  // namespace mlm
