/**
 * @file
 * Regenerates paper Table 3: maximum possible batch sizes of IBM LMS
 * and DeepUM. LMS is bound by device memory (pinned persistents +
 * allocator fragmentation under swap churn); DeepUM is bound by the
 * host backing store.
 */

#include <iostream>

#include "bench/common.hh"

using namespace deepum;
using namespace deepum::bench;

int
main(int argc, char **argv)
{
    auto cfg = defaultConfig();
    auto scfg = swapConfig(cfg);

    struct Probe {
        const char *model;
        std::uint64_t lo, hi;
    };
    const Probe kProbes[] = {
        {"gpt2-xl", 1, 256},     {"gpt2-l", 1, 256},
        {"bert-large", 2, 1024}, {"bert-base", 2, 2048},
        {"dlrm", 16 * 1024, 4096 * 1024},
        {"resnet200", 64, 32 * 1024},
        {"resnet152", 64, 32 * 1024},
    };

    // Rows fan out onto the pool; each row's three searches run
    // serially inside it.
    harness::ParallelRunner pool(jobsFromArgs(argc, argv));
    auto rows = pool.map<std::vector<std::string>>(
        std::size(kProbes), [&](std::size_t i) {
            const Probe &p = kProbes[i];
            std::uint64_t lms = baselines::maxBatchBaseline(
                baselines::BaselineKind::Lms, p.model, scfg, p.lo,
                p.hi);
            std::uint64_t mod = baselines::maxBatchBaseline(
                baselines::BaselineKind::LmsMod, p.model, scfg, p.lo,
                p.hi);
            std::uint64_t dum = harness::maxBatch(
                p.model, harness::SystemKind::DeepUm, cfg, p.lo,
                p.hi);
            return std::vector<std::string>{
                p.model,
                lms ? harness::fmtBatch(lms)
                    : std::string("not work"),
                mod ? harness::fmtBatch(mod)
                    : std::string("not work"),
                harness::fmtBatch(dum),
                lms ? harness::fmtSpeedup(static_cast<double>(dum) /
                                          static_cast<double>(lms))
                    : std::string("-")};
        });

    harness::TextTable t(
        {"model", "LMS", "LMS-mod", "DeepUM", "DeepUM/LMS"});
    for (auto &row : rows)
        t.row(row);

    banner("Table 3: maximum possible batch sizes (host backing "
           "store 4 GiB at 1/128 scale)");
    t.print(std::cout);
    return 0;
}
