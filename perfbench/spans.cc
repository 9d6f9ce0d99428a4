#include "spans.hh"

#include <chrono>

namespace perfbench {

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Run:
        return "run";
      case Layer::CoreFaultBatch:
        return "core.fault_batch";
      case Layer::CoreKernelEnd:
        return "core.kernel_end";
      case Layer::CoreMigrationIdle:
        return "core.migration_idle";
      case Layer::CoreBlockMigrated:
        return "core.block_migrated";
      case Layer::UvmVictim:
        return "uvm.victim";
      case Layer::TorchSegment:
        return "torch.segment";
    }
    return "?";
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanSummary
summarize(const std::vector<Span> &spans)
{
    SpanSummary out;
    std::vector<std::int64_t> self(spans.size());
    std::int32_t root = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        self[i] += s.endNs - s.startNs;
        if (s.parent < 0) {
            if (root >= 0 || s.layer != Layer::Run) {
                out.error = "expected exactly one root span, of layer run";
                return out;
            }
            root = static_cast<std::int32_t>(i);
            continue;
        }
        const Span &p = spans[s.parent];
        if (s.startNs < p.startNs || s.endNs > p.endNs ||
            s.endNs < s.startNs) {
            out.error = std::string("span ") + layerName(s.layer) +
                        " is not inside its parent " +
                        layerName(p.layer);
            return out;
        }
        self[s.parent] -= s.endNs - s.startNs;
    }
    if (root < 0) {
        out.error = "no run span";
        return out;
    }

    std::int64_t self_sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (self[i] < 0) {
            out.error = std::string("negative self time in ") +
                        layerName(spans[i].layer);
            return out;
        }
        LayerTime &lt = out.layers[static_cast<std::size_t>(
            spans[i].layer)];
        ++lt.calls;
        lt.totalNs += spans[i].endNs - spans[i].startNs;
        lt.selfNs += self[i];
        self_sum += self[i];
    }
    if (self_sum != spans[root].endNs - spans[root].startNs)
        out.error = "self times do not sum to the run span";
    return out;
}

} // namespace perfbench
