/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Each span records its layer, start, end and parent; parents come
 * from a stack of open spans, so nesting is observed rather than
 * assumed (pickVictim really does run inside DeepUM's kernel-end and
 * migration-idle hooks, via the pre-evictor). Spans stay in memory
 * and are reduced after the run.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** The seams the traced run times; Run is the root. */
enum class Layer : std::uint8_t {
    Run,               ///< Session::run: engine, driver, event dispatch
    CoreFaultBatch,    ///< DeepUm::onFaultBatch
    CoreKernelEnd,     ///< DeepUm::onKernelEnd
    CoreMigrationIdle, ///< DeepUm::onMigrationIdle
    CoreBlockMigrated, ///< DeepUm::onBlockMigrated
    UvmVictim,         ///< EvictionPolicy::pickVictim
    TorchSegment,      ///< SegmentSource calls from the allocator
};

inline constexpr std::size_t kLayers = 7;

/** Metric-name prefix of @p l, e.g. "core.fault_batch". */
const char *layerName(Layer l);

/** Host nanoseconds on the steady clock. */
std::int64_t nowNs();

struct Span {
    Layer layer;
    std::int32_t parent; ///< index into the span list, -1 for a root
    std::int64_t startNs;
    std::int64_t endNs;
};

/** Records nested spans; open/close must pair like brackets. */
class SpanRecorder
{
  public:
    void
    open(Layer l)
    {
        open_.push_back(static_cast<std::int32_t>(spans_.size()));
        spans_.push_back(Span{l,
                              open_.size() > 1 ? open_[open_.size() - 2]
                                               : -1,
                              nowNs(), 0});
    }

    /** Close the innermost open span, which must be of layer @p l. */
    void
    close(Layer l)
    {
        std::int64_t t = nowNs();
        if (open_.empty() || spans_[open_.back()].layer != l) {
            mismatched_ = true;
            return;
        }
        spans_[open_.back()].endNs = t;
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** True when every open had its matching close. */
    bool balanced() const { return open_.empty() && !mismatched_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    bool mismatched_ = false;
};

/** Per-layer totals over a span list. */
struct LayerTime {
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0; ///< total minus time covered by children
};

struct SpanSummary {
    std::array<LayerTime, kLayers> layers{};
    /** Empty when every check passed, else the first violation. */
    std::string error;
};

/**
 * Reduce @p spans to per-layer call counts, total and self times,
 * and check the tree: there is one root, of layer Run; each child
 * lies inside its parent; every self time is >= 0; and self times
 * sum to the root's duration.
 */
SpanSummary summarize(const std::vector<Span> &spans);

} // namespace perfbench
