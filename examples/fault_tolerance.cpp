/**
 * @file
 * Fault-tolerance study (paper Section 4.3.3, Fig. 9): inject core
 * failures into a mapped block and watch the replacement-chain
 * recovery - weights shuffle one hop toward the nearest KV core,
 * the KV core is absorbed, and recovery stays sub-millisecond.
 *
 * The example also runs the yield model at several defect densities
 * to show how many cores a production wafer loses, and verifies the
 * mapper routes around them.
 *
 * Failures are driven through the wafer-level RecoveryService - the
 * single runtime entry point that owns the placements, the mesh and
 * the defect state - including a drained-pool scenario where the
 * service borrows KV capacity from the adjacent block instead of
 * failing.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "hw/yield.hh"
#include "mapping/wafer_mapping.hh"
#include "model/llm.hh"
#include "runtime/recovery_service.hh"

int
main()
{
    using namespace ouro;
    setQuiet(true);

    const WaferGeometry geom;

    // --- Yield sweep ---
    std::cout << "Murphy yield model (core area 2.97 mm^2):\n";
    Table yield_table({"D0 [/cm^2]", "core yield", "expected defects",
                       "sampled defects"});
    for (const double d0 : {0.05, 0.09, 0.20, 0.50}) {
        YieldParams params;
        params.defectDensityPerCm2 = d0;
        Rng rng(100 + static_cast<std::uint64_t>(d0 * 1000));
        const DefectMap map(geom, params, rng);
        yield_table.row()
            .cell(d0, 2)
            .cell(murphyYield(params), 5)
            .cell(coreDefectProbability(params) *
                  static_cast<double>(geom.numCores()), 1)
            .cell(map.numDefects());
    }
    yield_table.print(std::cout);

    // --- Mapping around fabrication defects ---
    const ModelConfig model = llama13b();
    YieldParams params; // paper default D0 = 0.09
    Rng rng(7);
    const DefectMap defects(geom, params, rng);
    WaferMappingOptions opts;
    opts.mapper = MapperKind::Greedy;
    auto mapping = WaferMapping::build(model, CoreParams{}, geom,
                                       &defects, 0, model.numBlocks,
                                       opts);
    if (!mapping)
        fatal("mapping failed");
    std::cout << "\nMapped " << model.name << " around "
              << defects.numDefects() << " defective cores; "
              << mapping->totalKvCores() << " KV cores remain.\n";

    // --- Runtime failures through the RecoveryService ---
    std::cout << "\nRuntime core failures (replacement chains, "
                 "Section 4.3.3), handled by the\nwafer-level "
                 "RecoveryService:\n";
    Table chain_table({"failed core", "kind", "block", "chain length",
                       "moved MB", "latency [us]"});
    const Bytes tile_bytes = CoreParams{}.sramBytes();
    // The service owns the whole fault path: one mutable placement
    // per replica-chain region, the mesh and the defect map - every
    // chain shift is priced over its actual detour route.
    RecoveryService service(*mapping, NocParams{}, tile_bytes,
                            &defects);
    // The inter-block edges every handled failure's weight moves
    // touched, priced once at the end.
    std::vector<InterBlockEdge> touched;
    const auto touch = [&](const FailureOutcome &outcome) {
        const auto edges = service.touchedEdges(outcome);
        touched.insert(touched.end(), edges.begin(), edges.end());
    };

    // Fail three weight cores and one KV core of block 0 in turn.
    for (int k = 0; k < 3; ++k) {
        const CoreCoord failed =
            service.placement(0).weightCores[static_cast<std::size_t>(
                    k * 7)];
        const auto result = service.handleCoreFailure(failed);
        ouroAssert(result.has_value(), "recovery failed");
        touch(*result);
        chain_table.row()
            .cell("(" + std::to_string(failed.row) + "," +
                  std::to_string(failed.col) + ")")
            .cell("weights")
            .cell(result->block)
            .cell(static_cast<std::uint64_t>(
                    result->remap.chainLength))
            .cell(static_cast<double>(result->remap.movedBytes) /
                          1e6, 1)
            .cell(result->remap.latencySeconds * 1e6, 1);
        ouroAssert(result->remap.latencySeconds < 1e-3,
                   "recovery exceeded the paper's sub-ms bound");
    }
    if (!service.placement(0).scoreCores.empty()) {
        const CoreCoord failed =
            service.placement(0).scoreCores.front();
        const auto result = service.handleCoreFailure(failed);
        ouroAssert(result.has_value(), "KV recovery failed");
        touch(*result);
        chain_table.row()
            .cell("(" + std::to_string(failed.row) + "," +
                  std::to_string(failed.col) + ")")
            .cell("kv-cache")
            .cell(result->block)
            .cell(static_cast<std::uint64_t>(
                    result->remap.chainLength))
            .cell(0.0, 1)
            .cell(0.0, 1);
    }
    chain_table.print(std::cout);
    std::cout << "\nAll weight-core recoveries completed within "
                 "sub-millisecond latency; KV-core\nfailures cost "
                 "only the resident sequences' recompute.\n";

    // --- Cross-block KV borrowing ---
    // Drain block 0's dedicated KV pool dry, then fail one more
    // weight core: instead of giving up, the service borrows the
    // nearest KV core from the adjacent block of the same chain and
    // completes the chain into it.
    std::uint64_t drained = 0;
    while (!service.placement(0).scoreCores.empty() ||
           !service.placement(0).contextCores.empty()) {
        const auto &p = service.placement(0);
        const CoreCoord kv = p.scoreCores.empty()
                                 ? p.contextCores.front()
                                 : p.scoreCores.front();
        const auto drop = service.handleCoreFailure(kv);
        ouroAssert(drop.has_value(), "KV drain failed");
        touch(*drop);
        ++drained;
    }
    const CoreCoord dry_failure = service.placement(0).weightCores[1];
    const auto borrowed = service.handleCoreFailure(dry_failure);
    ouroAssert(borrowed.has_value() && !borrowed->borrows.empty(),
               "dry-pool recovery did not borrow");
    touch(*borrowed);
    const KvBorrow &loan = borrowed->borrows.front();
    std::cout << "\nKV borrow: drained block 0's remaining "
              << drained << " KV cores, then failed weight core ("
              << dry_failure.row << "," << dry_failure.col
              << ");\nthe service borrowed KV core (" << loan.core.row
              << "," << loan.core.col << ") from block "
              << loan.fromBlock
              << " and completed the chain (length "
              << borrowed->remap.chainLength << ", "
              << formatDouble(borrowed->remap.latencySeconds * 1e6, 1)
              << " us).\n"
              << "Recoveries handled: " << service.recoveries()
              << " (" << service.borrowCount()
              << " cross-block borrows).\n";

    // Block 0's weight moves touched its inter-block flows; one
    // pricing call over the distinct touched edges re-prices them.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    const RepriceResult reprice = service.priceEdges(touched);
    std::cout << "Re-priced " << touched.size()
              << " touched inter-block edge(s) in one call: "
              << formatDouble(reprice.interBlockByteHops / 1e6, 1)
              << " M effective byte-hops.\n";
    return 0;
}
