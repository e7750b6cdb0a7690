/**
 * @file
 * Section 5.6 — "Varying sense-interval length and divisibility",
 * plus a throttle on/off ablation (docs/DESIGN.md, Throttling).
 *
 * Paper claims: energy-delay varies by < 1% across a 16x interval
 * range for all but go (< 5%); divisibility 4 or 8 coarsens
 * resizing and hurts.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"

using namespace drisim;
using namespace drisim::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    std::string err;
    if (!parseBenchArgs(argc, argv, ctx, err,
                        /*acceptCores=*/false, /*acceptShort=*/false,
                        /*acceptShard=*/true)) {
        std::cerr << err << "\n";
        return 2;
    }
    if (ctx.listOnly)
        return listBenchmarks();

    printHeader("Section 5.6: sense interval, divisibility, throttle",
                "Section 5.6 (text)");
    std::cout << workerBanner(ctx) << "\n";

    // Paper sweeps 250K..4M around a 1M base (scaled here 4x down
    // around the 100K base, same 16x dynamic range).
    const InstCount intervals[] = {25000, 50000, 100000, 200000,
                                   400000};
    Table ti({"benchmark", "ED 0.25x", "ED 0.5x", "ED 1x", "ED 2x",
              "ED 4x", "max dev"});
    Table td({"benchmark", "ED div2 (base)", "ED div4", "ED div8"});
    Table tt({"benchmark", "ED throttled (base)", "ED no-throttle",
              "resizes base", "resizes no-throttle"});

    // JSON rows: the interval sweep's cells plus the unit's
    // canonical config hash (runKeyConventional + the sweep tag),
    // the farm's shard/merge join key.
    const std::vector<std::string> jsonCols{
        "benchmark", "ED 0.25x", "ED 0.5x", "ED 1x",
        "ED 2x",     "ED 4x",    "max dev", "config_hash"};
    SweepDriver drv(ctx, "bench_section56", "section56", jsonCols);

    double worst_dev = 0.0;
    std::string worst_name;

    const auto &suite = paperSuite();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &b = suite[i];
        if (!drv.shouldRun(i))
            continue;
        const BaseResult base = computeBase(b, ctx);
        const DriParams &bp = base.constrained.dri;

        // --- interval sweep + divisibility ----------------------
        // All off-base variants of both ablations are independent
        // detailed runs; batch them through one executor pass.
        double base_ed = base.constrained.cmp.relativeEnergyDelay();
        std::vector<DriParams> variants;
        std::vector<const ComparisonResult *> ivCmp;
        for (InstCount iv : intervals) {
            if (iv == bp.senseInterval) {
                ivCmp.push_back(&base.constrained.cmp);
                continue;
            }
            DriParams p = bp;
            p.senseInterval = iv;
            // Miss-bound is per interval: scale it with the length.
            p.missBound = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       std::llround(static_cast<double>(bp.missBound) *
                                    static_cast<double>(iv) /
                                    static_cast<double>(
                                        bp.senseInterval))));
            variants.push_back(p);
            ivCmp.push_back(nullptr); // filled from the batch below
        }
        const std::size_t divFirst = variants.size();
        for (unsigned div : {4u, 8u}) {
            DriParams p = bp;
            p.divisibility = div;
            variants.push_back(p);
        }
        const std::vector<ComparisonResult> batch =
            evaluateDetailedBatch(b, ctx.cfg, variants,
                                  ctx.constants, base.conv,
                                  &benchExecutor(ctx));

        std::vector<std::string> row{b.name};
        double dev = 0.0;
        std::size_t next = 0;
        for (const ComparisonResult *&slot : ivCmp) {
            if (!slot)
                slot = &batch[next++];
            row.push_back(
                fmtDouble(slot->relativeEnergyDelay(), 3));
            dev = std::max(dev,
                           std::abs(slot->relativeEnergyDelay() -
                                    base_ed));
        }
        row.push_back(fmtDouble(dev, 3));
        ti.addRow(row);
        std::vector<std::string> jsonRow = row;
        jsonRow.push_back(drv.unit(i).hashHex);
        if (dev > worst_dev) {
            worst_dev = dev;
            worst_name = b.name;
        }

        std::vector<std::string> drow{b.name,
                                      fmtDouble(base_ed, 3)};
        for (std::size_t k = divFirst; k < variants.size(); ++k)
            drow.push_back(
                fmtDouble(batch[k].relativeEnergyDelay(), 3));
        td.addRow(drow);

        // --- throttle ablation ----------------------------------
        DriParams p = bp;
        p.throttleHoldIntervals = 0; // trigger becomes a no-op
        RunOutput no_thr;
        RunOutput with_thr;
        benchExecutor(ctx).forEachIndex(
            b.name + "/throttle", 2,
            [&](std::size_t k, const JobContext &) {
                if (k == 0)
                    no_thr = runDri(b, ctx.cfg, p);
                else
                    with_thr = runDri(b, ctx.cfg, bp);
            });
        const ComparisonResult c = compareRuns(
            ctx.constants, base.conv.meas, no_thr.meas);
        tt.addRow({b.name, fmtDouble(base_ed, 3),
                   fmtDouble(c.relativeEnergyDelay(), 3),
                   std::to_string(with_thr.resizes),
                   std::to_string(no_thr.resizes)});
        drv.unitDone(i, {std::move(jsonRow)});
        std::cerr << "  [section56] " << b.name << " done\n";
    }

    std::cout << "\n-- sense-interval sweep (miss-bound scaled "
                 "proportionally) --\n";
    ti.print(std::cout);
    std::cout << "largest deviation: " << fmtDouble(worst_dev, 3)
              << " (" << worst_name
              << "); paper: <0.01 for all but go (<0.05)\n";

    std::cout << "\n-- divisibility --\n";
    td.print(std::cout);
    std::cout << "paper: divisibility 4/8 'prohibitively increases "
                 "the resizing granularity'\n";

    std::cout << "\n-- throttle ablation (not plotted in the paper; "
                 "docs/DESIGN.md, Throttling) --\n";
    tt.print(std::cout);
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
