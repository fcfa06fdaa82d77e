#include "problem.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ouro
{

namespace
{

/** Split @p dim into @p parts near-equal slices; bounds of part p. */
std::uint64_t
partLo(std::uint64_t dim, std::uint32_t parts, std::uint32_t p)
{
    return dim * p / parts;
}

std::uint64_t
partHi(std::uint64_t dim, std::uint32_t parts, std::uint32_t p)
{
    return dim * (p + 1) / parts;
}

} // namespace

std::uint64_t
LayerSpec::inPartLo(std::uint32_t i) const
{
    return partLo(inDim, inSplits, i);
}

std::uint64_t
LayerSpec::inPartHi(std::uint32_t i) const
{
    return partHi(inDim, inSplits, i);
}

std::uint64_t
LayerSpec::outPartLo(std::uint32_t o) const
{
    return partLo(outDim, outSplits, o);
}

std::uint64_t
LayerSpec::outPartHi(std::uint32_t o) const
{
    return partHi(outDim, outSplits, o);
}

Bytes
LayerSpec::reductionVolume(std::uint32_t o) const
{
    return 4 * (outPartHi(o) - outPartLo(o)); // 32-bit partial sums
}

Bytes
LayerSpec::gatherVolume(std::uint32_t o) const
{
    return outPartHi(o) - outPartLo(o); // requantised 8-bit slices
}

std::vector<LayerSpec>
tileBlockLayers(const ModelConfig &model, const CoreParams &core_params)
{
    const auto &xp = core_params.crossbar;
    const std::uint64_t max_rows = xp.rows;
    const std::uint64_t max_cols =
        static_cast<std::uint64_t>(core_params.numCrossbars) *
        (xp.cols / xp.weightBits);

    std::vector<LayerSpec> specs;
    for (const auto &layer : model.blockLayers()) {
        LayerSpec spec;
        spec.name = layer.name;
        spec.inDim = layer.inDim;
        spec.outDim = layer.outDim;
        spec.inSplits = static_cast<std::uint32_t>(
                ceilDiv(layer.inDim, max_rows));
        spec.outSplits = static_cast<std::uint32_t>(
                ceilDiv(layer.outDim, max_cols));
        specs.push_back(spec);
    }
    return specs;
}

std::uint32_t
coresPerBlock(const ModelConfig &model, const CoreParams &core_params)
{
    std::uint32_t total = 0;
    for (const auto &spec : tileBlockLayers(model, core_params))
        total += spec.numTiles();
    return total;
}

MappingProblem::MappingProblem(const ModelConfig &model,
                               const CoreParams &core_params,
                               const WaferGeometry &geom,
                               std::vector<CoreCoord> candidate_cores,
                               double cost_inter,
                               const DefectMap *defects)
    : layers_(tileBlockLayers(model, core_params)),
      candidates_(std::move(candidate_cores)), geom_(geom),
      costInter_(cost_inter), defects_(defects)
{
    for (std::uint32_t l = 0; l < layers_.size(); ++l) {
        for (std::uint32_t o = 0; o < layers_[l].outSplits; ++o) {
            for (std::uint32_t i = 0; i < layers_[l].inSplits; ++i)
                tiles_.push_back({l, i, o});
        }
    }
    std::uint32_t usable = 0;
    for (std::size_t r = 0; r < candidates_.size(); ++r)
        usable += candidateUsable(r) ? 1 : 0;
    ouroAssert(usable >= tiles_.size(),
               "MappingProblem: region has ", usable,
               " usable cores but the block needs ", tiles_.size());

    buildFlowGraph();
    buildSlots();
}

MappingProblem
MappingProblem::congruentTranslate(
        std::vector<CoreCoord> candidate_cores) const
{
    ouroAssert(candidate_cores.size() == candidates_.size(),
               "congruentTranslate: region of ",
               candidate_cores.size(), " cores is not congruent to ",
               candidates_.size());
    // Field-wise clone instead of a copy construction: the template's
    // candidates and slots are replaced, so copying them is waste.
    MappingProblem translated;
    translated.layers_ = layers_;
    translated.tiles_ = tiles_;
    translated.candidates_ = std::move(candidate_cores);
    translated.geom_ = geom_;
    translated.costInter_ = costInter_;
    // Congruent regions are defect-free slices by construction (the
    // caller filtered defective cores out of the candidate order), so
    // the translated instance carries no defect map - the same way
    // WaferMapping's per-block rebuild constructs its instances.
    translated.defects_ = nullptr;
    // The flow CSR depends only on the tiling, which congruent
    // regions share by definition - so the immutable CSR is shared
    // behind its shared_ptr, making the translate O(1) in flow size.
    translated.flow_ = flow_;
    translated.buildSlots();
    return translated;
}

Bytes
MappingProblem::flowBetween(std::size_t a, std::size_t b) const
{
    ouroAssert(a < tiles_.size() && b < tiles_.size() && a != b,
               "flowBetween: bad tile pair");
    const Tile &ta = tiles_[a];
    const Tile &tb = tiles_[b];
    const LayerSpec &la = layers_[ta.layer];
    const LayerSpec &lb = layers_[tb.layer];
    Bytes bytes = 0;

    // The flow terms of Eq. 1 (oracles/mapping.cc prices the same
    // terms pair by pair); at most one fires for any pair, so summing
    // them is safe.
    if (ta.layer + 1 == tb.layer && ta.inSplit == la.inSplits - 1) {
        bytes += overlap(
                la.outPartLo(ta.outSplit), la.outPartHi(ta.outSplit),
                lb.inPartLo(tb.inSplit), lb.inPartHi(tb.inSplit));
    }
    if (tb.layer + 1 == ta.layer && tb.inSplit == lb.inSplits - 1) {
        bytes += overlap(
                lb.outPartLo(tb.outSplit), lb.outPartHi(tb.outSplit),
                la.inPartLo(ta.inSplit), la.inPartHi(ta.inSplit));
    }
    if (ta.layer == tb.layer) {
        const LayerSpec &layer = la;
        if (ta.outSplit == tb.outSplit) {
            const bool a_sends = ta.inSplit != layer.inSplits - 1 &&
                                 tb.inSplit == layer.inSplits - 1;
            const bool b_sends = tb.inSplit != layer.inSplits - 1 &&
                                 ta.inSplit == layer.inSplits - 1;
            if (a_sends || b_sends)
                bytes += layer.reductionVolume(ta.outSplit);
        }
        if (ta.outSplit != tb.outSplit &&
            ta.inSplit == layer.inSplits - 1 &&
            tb.inSplit == layer.inSplits - 1) {
            // Directed: prices the FIRST tile's slice, so F(a->b) and
            // F(b->a) can differ when the last split part is smaller.
            bytes += layer.gatherVolume(ta.outSplit);
        }
    }
    return bytes;
}

void
MappingProblem::buildFlowGraph()
{
    const std::size_t n = tiles_.size();
    FlowCsr csr;
    csr.offsets.assign(n + 1, 0);
    csr.upper.assign(n, 0);

    // Single triangle scan, two flowBetween() evaluations per pair.
    // Appending partner b to row a while the outer index ascends (and
    // a to row b from earlier outer iterations) leaves every row in
    // ascending partner order - the canonical order that makes the
    // sparse sums bit-identical to the dense loops.
    struct FlowEntry
    {
        std::uint32_t partner;
        double bytes;
    };
    std::vector<std::vector<FlowEntry>> rows(n);
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            const Bytes ab = flowBetween(a, b);
            const Bytes ba = flowBetween(b, a);
            if (ab == 0 && ba == 0)
                continue;
            rows[a].push_back({static_cast<std::uint32_t>(b),
                               static_cast<double>(ab)});
            rows[b].push_back({static_cast<std::uint32_t>(a),
                               static_cast<double>(ba)});
        }
    }

    for (std::size_t t = 0; t < n; ++t)
        csr.offsets[t + 1] =
            csr.offsets[t] +
            static_cast<std::uint32_t>(rows[t].size());
    csr.partner.resize(csr.offsets[n]);
    csr.bytes.resize(csr.offsets[n]);
    for (std::size_t t = 0; t < n; ++t) {
        std::uint32_t k = csr.offsets[t];
        csr.upper[t] = k;
        for (const FlowEntry &entry : rows[t]) {
            csr.partner[k] = entry.partner;
            csr.bytes[k] = entry.bytes;
            if (entry.partner < t)
                csr.upper[t] = k + 1;
            ++k;
        }
    }
    flow_ = std::make_shared<const FlowCsr>(std::move(csr));
}

void
MappingProblem::buildSlots()
{
    slots_.clear();
    slots_.reserve(candidates_.size());
    for (const CoreCoord c : candidates_) {
        const DieCoord die = geom_.dieOf(c);
        slots_.push_back({c, die.row * geom_.dieCols() + die.col});
    }
}

bool
MappingProblem::candidateUsable(std::size_t r) const
{
    ouroAssert(r < candidates_.size(), "candidateUsable: bad index");
    return !defects_ || !defects_->defective(candidates_[r]);
}

std::uint64_t
MappingProblem::overlap(std::uint64_t lo1, std::uint64_t hi1,
                        std::uint64_t lo2, std::uint64_t hi2)
{
    const std::uint64_t lo = std::max(lo1, lo2);
    const std::uint64_t hi = std::min(hi1, hi2);
    return hi > lo ? hi - lo : 0;
}

double
MappingProblem::assignmentCost(
        const std::vector<std::uint32_t> &assignment) const
{
    ouroAssert(assignment.size() == tiles_.size(),
               "assignmentCost: wrong assignment size");
    // Sparse upper-triangle walk. The dense reference visits pairs
    // (a, b > a) in ascending order; skipped pairs contribute exactly
    // +0.0 there, so this sum is bit-identical.
    double total = 0.0;
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();
    for (std::size_t a = 0; a < tiles_.size(); ++a) {
        const std::uint32_t sa = assignment[a];
        for (std::uint32_t k = flow_->upper[a];
             k < flow_->offsets[a + 1]; ++k) {
            const std::uint32_t sb = assignment[partner[k]];
            total += slotDist(sa, sb) * bytes[k] * slotPen(sa, sb);
        }
    }
    return total;
}

double
MappingProblem::moveDelta(const std::vector<std::uint32_t> &assignment,
                          std::size_t t, std::uint32_t new_slot) const
{
    ouroAssert(t < tiles_.size(), "moveDelta: bad tile index");
    const std::uint32_t old_slot = assignment[t];
    double delta = 0.0;
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();
    for (std::uint32_t k = flow_->offsets[t];
         k < flow_->offsets[t + 1]; ++k) {
        const std::uint32_t sb = assignment[partner[k]];
        delta += slotDist(new_slot, sb) * bytes[k] *
                         slotPen(new_slot, sb) -
                 slotDist(old_slot, sb) * bytes[k] *
                         slotPen(old_slot, sb);
    }
    return delta;
}

double
MappingProblem::swapDelta(const std::vector<std::uint32_t> &assignment,
                          std::size_t t1, std::size_t t2) const
{
    ouroAssert(t1 < tiles_.size() && t2 < tiles_.size() && t1 != t2,
               "swapDelta: bad tile pair");
    const std::uint32_t s1 = assignment[t1];
    const std::uint32_t s2 = assignment[t2];
    const std::uint32_t *partner = flow_->partner.data();
    const double *bytes = flow_->bytes.data();

    // Merge the two adjacency rows in ascending partner order - the
    // same order the dense reference visits its nonzero terms in - and
    // evaluate each partner's contribution with the dense expression.
    // Partners equal to t1/t2 are skipped here; the dense loop's
    // closing (t1,t2) correction term is exactly +0.0 (same distance
    // and penalty on both sides of the swap), so dropping it keeps the
    // result bit-identical.
    std::uint32_t i = flow_->offsets[t1];
    const std::uint32_t i_end = flow_->offsets[t1 + 1];
    std::uint32_t j = flow_->offsets[t2];
    const std::uint32_t j_end = flow_->offsets[t2 + 1];
    const std::uint32_t u1 = static_cast<std::uint32_t>(t1);
    const std::uint32_t u2 = static_cast<std::uint32_t>(t2);

    double delta = 0.0;
    while (i < i_end || j < j_end) {
        const std::uint32_t b1 =
            i < i_end ? partner[i] : UINT32_MAX;
        const std::uint32_t b2 =
            j < j_end ? partner[j] : UINT32_MAX;
        if (b1 < b2) {
            if (b1 != u2) {
                const std::uint32_t sb = assignment[b1];
                const double f1 = bytes[i];
                delta += slotDist(s2, sb) * f1 * slotPen(s2, sb) -
                         slotDist(s1, sb) * f1 * slotPen(s1, sb);
            }
            ++i;
        } else if (b2 < b1) {
            if (b2 != u1) {
                const std::uint32_t sb = assignment[b2];
                const double f2 = bytes[j];
                delta += slotDist(s1, sb) * f2 * slotPen(s1, sb) -
                         slotDist(s2, sb) * f2 * slotPen(s2, sb);
            }
            ++j;
        } else {
            const std::uint32_t sb = assignment[b1];
            const double f1 = bytes[i];
            const double f2 = bytes[j];
            delta += slotDist(s2, sb) * f1 * slotPen(s2, sb) -
                     slotDist(s1, sb) * f1 * slotPen(s1, sb) +
                     slotDist(s1, sb) * f2 * slotPen(s1, sb) -
                     slotDist(s2, sb) * f2 * slotPen(s2, sb);
            ++i;
            ++j;
        }
    }
    return delta;
}

bool
MappingProblem::feasible(
        const std::vector<std::uint32_t> &assignment) const
{
    if (assignment.size() != tiles_.size())
        return false;
    std::vector<bool> used(candidates_.size(), false);
    for (const auto slot : assignment) {
        if (slot >= candidates_.size())
            return false;
        if (used[slot])
            return false; // Eq. 2: one tile per core
        if (!candidateUsable(slot))
            return false; // Eq. 2: defective core
        used[slot] = true;
    }
    // Eq. 3 holds by construction: every tile is placed exactly once.
    return true;
}

} // namespace ouro
