#include "mlm/core/chunk_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "mlm/support/error.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

DualSpace make_space(McdramMode mode, std::uint64_t mcdram = MiB(4)) {
  DualSpaceConfig cfg;
  cfg.mode = mode;
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

PipelineConfig small_config(Buffering buffering = Buffering::Triple,
                            std::size_t chunk_bytes = 256 * 1024) {
  PipelineConfig cfg;
  cfg.chunk_bytes = chunk_bytes;
  cfg.pools = PoolSizes{1, 1, 2};
  cfg.buffering = buffering;
  return cfg;
}

class BufferingModes : public ::testing::TestWithParam<Buffering> {};

TEST_P(BufferingModes, IncrementsEveryElementExactlyOnce) {
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(300000);
  std::iota(data.begin(), data.end(), 0);

  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), small_config(GetParam()),
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (auto& v : chunk) v += 1;
      });

  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 1) << i;
  }
  EXPECT_GT(stats.chunks, 1u);
  EXPECT_EQ(stats.bytes_copied_in, data.size() * sizeof(std::int64_t));
  EXPECT_EQ(stats.bytes_copied_out, data.size() * sizeof(std::int64_t));
}

INSTANTIATE_TEST_SUITE_P(AllModes, BufferingModes,
                         ::testing::Values(Buffering::Single,
                                           Buffering::Double,
                                           Buffering::Triple),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ChunkPipeline, ChunkIndicesArriveInOrderWithCorrectSlices) {
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(100000);
  std::iota(data.begin(), data.end(), 0);

  std::vector<std::size_t> indices;
  std::vector<std::int64_t> first_elements;
  run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), small_config(),
      [&](std::span<std::int64_t> chunk, Executor&, std::size_t idx) {
        indices.push_back(idx);
        first_elements.push_back(chunk.front());
      });
  ASSERT_FALSE(indices.empty());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
    EXPECT_EQ(first_elements[i],
              static_cast<std::int64_t>(i * (256 * 1024 / 8)));
  }
}

TEST(ChunkPipeline, ImplicitModeProcessesInPlaceWithoutCopies) {
  DualSpace space = make_space(McdramMode::ImplicitCache);
  std::vector<std::int64_t> data(200000, 1);
  const std::int64_t* original_ptr = data.data();
  std::atomic<bool> in_place{true};

  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), small_config(),
      [&](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        // Implicit mode must hand us the original storage.
        if (chunk.data() < original_ptr ||
            chunk.data() >= original_ptr + data.size()) {
          in_place = false;
        }
        for (auto& v : chunk) v += 1;
      });

  EXPECT_TRUE(in_place.load());
  EXPECT_EQ(stats.bytes_copied_in, 0u);
  EXPECT_EQ(stats.bytes_copied_out, 0u);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                          [](std::int64_t v) { return v == 2; }));
}

TEST(ChunkPipeline, WriteBackFalseLeavesDataUntouched) {
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(100000, 7);
  std::atomic<std::int64_t> sum{0};
  PipelineConfig cfg = small_config();
  cfg.write_back = false;

  run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [&](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        std::int64_t local = 0;
        for (auto& v : chunk) {
          local += v;
          v = 0;  // scribble on the buffer copy
        }
        sum += local;
      });

  EXPECT_EQ(sum.load(), 700000);
  EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                          [](std::int64_t v) { return v == 7; }));
}

TEST(ChunkPipeline, DefaultChunkSizeFillsNearMemory) {
  DualSpace space = make_space(McdramMode::Flat, MiB(3));
  std::vector<std::int64_t> data(MiB(2) / sizeof(std::int64_t), 1);
  PipelineConfig cfg = small_config();
  cfg.chunk_bytes = 0;  // auto: capacity / 3 buffers = 1 MiB
  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t>, Executor&, std::size_t) {});
  EXPECT_EQ(stats.chunks, 2u);
}

TEST(ChunkPipeline, OversizedBuffersThrowOutOfMemory) {
  DualSpace space = make_space(McdramMode::Flat, MiB(1));
  std::vector<std::int64_t> data(MiB(2) / sizeof(std::int64_t), 1);
  PipelineConfig cfg = small_config(Buffering::Triple, MiB(1));
  EXPECT_THROW(run_chunk_pipeline_typed<std::int64_t>(
                   space, std::span<std::int64_t>(data), cfg,
                   [](std::span<std::int64_t>, Executor&, std::size_t) {}),
               OutOfMemoryError);
}

TEST(ChunkPipeline, SingleBufferingFitsWhereTripleDoesNot) {
  DualSpace space = make_space(McdramMode::Flat, MiB(1));
  std::vector<std::int64_t> data(MiB(2) / sizeof(std::int64_t));
  std::iota(data.begin(), data.end(), 0);
  auto expect = data;
  for (auto& v : expect) v *= 2;

  PipelineConfig cfg = small_config(Buffering::Single, MiB(1) - 64);
  run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (auto& v : chunk) v *= 2;
      });
  EXPECT_EQ(data, expect);
}

TEST(ChunkPipeline, ComputeExceptionPropagates) {
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(100000, 1);
  EXPECT_THROW(
      run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(data), small_config(),
          [](std::span<std::int64_t>, Executor&, std::size_t idx) {
            if (idx == 1) throw Error("compute failed");
          }),
      Error);
}

TEST(ChunkPipeline, RejectsBadArguments) {
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(100, 1);
  // Empty input is a no-op, not an error.
  const PipelineStats empty = run_chunk_pipeline(
      space, {}, small_config(),
      [](std::span<std::byte>, Executor&, std::size_t) {});
  EXPECT_EQ(empty.chunks, 0u);
  EXPECT_EQ(empty.steps, 0u);
  EXPECT_EQ(empty.bytes_copied_in, 0u);
  EXPECT_THROW(
      run_chunk_pipeline(space, std::as_writable_bytes(
                                    std::span<std::int64_t>(data)),
                         small_config(), nullptr),
      InvalidArgumentError);
}

TEST(ChunkPipeline, HybridModeUsesScratchpadHalf) {
  // Hybrid mode: only the flat fraction of MCDRAM is addressable; the
  // pipeline's buffers must respect it and chunks still round-trip.
  DualSpaceConfig scfg;
  scfg.mode = McdramMode::Hybrid;
  scfg.mcdram_bytes = MiB(4);
  scfg.hybrid_flat_fraction = 0.5;
  DualSpace space(scfg);
  std::vector<std::int64_t> data(300000);
  std::iota(data.begin(), data.end(), -150000);

  PipelineConfig cfg = small_config();
  cfg.chunk_bytes = 0;  // auto: (4 MiB * 0.5) / 3 buffers
  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (auto& v : chunk) v = -v;
      });
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], 150000 - static_cast<std::int64_t>(i));
  }
  EXPECT_GE(stats.chunks, 2u);
  // High-water stayed within the 2 MiB flat half.
  EXPECT_LE(space.mcdram().stats().high_water_bytes, MiB(2));
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

TEST(ChunkPipeline, StatsStepCountsMatchBuffering) {
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(4 * 256 * 1024 / 8, 1);  // 4 chunks
  for (auto [buffering, expected_steps] :
       {std::pair{Buffering::Single, 4u}, {Buffering::Double, 5u},
        {Buffering::Triple, 6u}}) {
    const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), small_config(buffering),
        [](std::span<std::int64_t>, Executor&, std::size_t) {});
    EXPECT_EQ(stats.chunks, 4u);
    EXPECT_EQ(stats.steps, expected_steps) << to_string(buffering);
  }
}

TEST(ChunkPipeline, CopyStageTimesEndAtTheLastSliceNotTheJoin) {
  // Overlapped copies are joined at the step barrier, after compute.  A
  // slow compute over tiny chunks must not show up as copy time: each
  // copy moves 4 KiB, while compute sleeps 10 ms per chunk.
  DualSpace space = make_space(McdramMode::Flat);
  std::vector<std::int64_t> data(8 * 4096 / 8, 1);  // 8 chunks
  for (Buffering buffering : {Buffering::Double, Buffering::Triple}) {
    const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), small_config(buffering, 4096),
        [](std::span<std::int64_t>, Executor&, std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        });
    ASSERT_EQ(stats.chunks, 8u);
    EXPECT_GE(stats.compute_seconds, 0.08) << to_string(buffering);
    EXPECT_LT(stats.copy_in_seconds, stats.compute_seconds / 4)
        << to_string(buffering);
    EXPECT_LT(stats.copy_out_seconds, stats.compute_seconds / 4)
        << to_string(buffering);
  }
}

}  // namespace
}  // namespace mlm::core
