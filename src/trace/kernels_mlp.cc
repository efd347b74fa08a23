/**
 * @file
 * MLP-sensitive kernels (SPEC stand-ins; see kernels.hh).
 *
 * Each kernel is built so a larger instruction window exposes more
 * outstanding misses: iterations carry independent long-latency loads
 * whose consumers (the parkable Non-Urgent / Non-Ready slices) would
 * otherwise clog the IQ and register file.
 */

#include "trace/kernel_dsl.hh"
#include "trace/kernels.hh"

namespace ltp {

namespace {

/**
 * astar/rivers stand-in.  Four independent search fronts walk the node
 * array round-robin; each visit is a pointer chase (Urgent + Non-Ready
 * load) with a dependent fan-out load and cost accumulation.  A bigger
 * window overlaps more fronts' misses, and because the chase and
 * fan-out loads are Urgent *and* Non-Ready, Non-Ready parking matters
 * more than Non-Urgent here -- mirroring the paper's astar discussion.
 */
class GraphWalk : public Kernel<GraphWalk>
{
  public:
    GraphWalk() : Kernel("graph_walk") {}

  protected:
    void
    init() override
    {
        nodes_ = region(24 << 20);  // chase footprint: DRAM
        data_ = region(32 << 20);   // fan-out loads: DRAM
        work_ = region(8 << 10);    // open list: L1 resident
        wi_ = 0;
    }

    void
    emitIteration() override
    {
        // Six architectural walker pointers: independent chase chains
        // the window can overlap (parallel search fronts).
        int front = int(iter_ % 6);
        const RegId p = intReg(1 + front);
        const RegId v0 = intReg(12), h0 = intReg(13), sum = intReg(14),
                    wa = intReg(15), i = intReg(10), t = intReg(11);
        const int base = 16 * front; // per-front static code

        // Serial within a front: the next node depends on this load.
        emitLoad(base + 0, p, nodes_.randElem(rng_, 8), p);
        // Dependent fan-out load (miss): Urgent (an LL load itself) but
        // Non-Ready (its address hangs off the chase pointer).
        emitOp(base + 1, OpClass::IntAlu, h0, p);
        emitLoad(base + 2, v0, data_.randElem(rng_, 8), h0);
        // Cost accumulation: consumers of the fan-out load (NU+NR).
        emitOp(base + 3, OpClass::IntAlu, sum, v0, p);
        emitOp(base + 4, OpClass::IntAlu, sum, sum);
        // Open-list bookkeeping: cache-resident store + loop overhead.
        emitOp(base + 5, OpClass::IntAlu, wa, i);
        emitStore(base + 6, work_.elem(wi_, 8), sum, wa);
        emitOp(base + 7, OpClass::IntAlu, i, i);
        emitOp(base + 8, OpClass::IntAlu, t, i);
        emitBranch(base + 9, true, 16 * int((iter_ + 1) % 6), t);
        wi_ += 1;
    }

  private:
    Region nodes_, data_, work_;
    std::uint64_t wi_ = 0;
};

/**
 * milc stand-in.  d = B[A[i]] with a prefetch-friendly index stream and
 * a DRAM-sized B, followed by a five-deep FP consumer chain and a
 * streaming store.  Nearly every Non-Ready instruction is also
 * Non-Urgent, so NU-only parking covers the NR ones too — the property
 * the paper highlights for milc.
 */
class IndirectStreamFp : public Kernel<IndirectStreamFp>
{
  public:
    IndirectStreamFp() : Kernel("indirect_stream_fp") {}

  protected:
    void
    init() override
    {
        idx_ = region(8 << 20);   // A[]: sequential, prefetched
        grid_ = region(64 << 20); // B[]: random, misses
        out_ = region(512 << 10); // C[]: streaming stores, L3 resident
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId ai = intReg(1), t1 = intReg(2), ab = intReg(3),
                    i = intReg(10), t2 = intReg(11), ac = intReg(12);
        const RegId d = fpReg(1), f1 = fpReg(2), f2 = fpReg(3),
                    f3 = fpReg(4), f4 = fpReg(5), c0 = fpReg(10);

        emitOp(0, OpClass::IntAlu, ai, i);
        emitLoad(1, t1, idx_.elem(i_, 8), ai);          // A[i]: hit
        emitOp(2, OpClass::IntAlu, ab, t1);
        emitLoad(3, d, grid_.randElem(rng_, 8), ab);    // B[A[i]]: miss
        // SU(3) flavoured consumer chain: all NU+NR.
        emitOp(4, OpClass::FpMul, f1, d, c0);
        emitOp(5, OpClass::FpAlu, f2, f1, c0);
        emitOp(6, OpClass::FpMul, f3, f2, f1);
        emitOp(7, OpClass::FpAlu, f4, f3, c0);
        emitOp(8, OpClass::IntAlu, ac, i);
        emitStore(9, out_.elem(i_, 8), f4, ac);
        emitOp(10, OpClass::IntAlu, i, i);
        emitOp(11, OpClass::IntAlu, t2, i);
        emitBranch(12, true, 0, t2);
        i_ += 1;
    }

  private:
    Region idx_, grid_, out_;
    std::uint64_t i_ = 0;
};

/**
 * soplex/sphinx stand-in: sparse matrix-vector product
 * y[i] += M[j] * x[col[j]] — col[] streams (hits), x[] gathers (misses).
 */
class SparseGather : public Kernel<SparseGather>
{
  public:
    SparseGather() : Kernel("sparse_gather") {}

  protected:
    void
    init() override
    {
        col_ = region(8 << 20);  // column indices: sequential
        mat_ = region(8 << 20);  // matrix values: sequential
        vec_ = region(24 << 20); // gathered vector: random, misses
        acc_ = region(4 << 10);  // y accumulator: L1 resident
        j_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId aj = intReg(1), cj = intReg(2), ax = intReg(3),
                    j = intReg(10), t = intReg(11);
        const RegId m = fpReg(1), x = fpReg(2), p = fpReg(3),
                    y = fpReg(4);

        emitOp(0, OpClass::IntAlu, aj, j);
        emitLoad(1, cj, col_.elem(j_, 8), aj);           // col[j]: hit
        emitLoad(2, m, mat_.elem(j_, 8), aj);            // M[j]: hit
        emitOp(3, OpClass::IntAlu, ax, cj);
        emitLoad(4, x, vec_.randElem(rng_, 8), ax);      // x[col[j]]: miss
        emitOp(5, OpClass::FpMul, p, m, x);              // NU+NR
        emitOp(6, OpClass::FpAlu, y, y, p);              // NU+NR
        emitStore(7, acc_.elem(j_ & 63, 8), y, aj);
        emitOp(8, OpClass::IntAlu, j, j);
        emitOp(9, OpClass::IntAlu, t, j);
        emitBranch(10, true, 0, t);
        j_ += 1;
    }

  private:
    Region col_, mat_, vec_, acc_;
    std::uint64_t j_ = 0;
};

/**
 * omnetpp stand-in: event-queue / hash probing.  Hash computation is the
 * Urgent slice; the bucket load misses; a short chain walk follows with
 * a data-dependent (poorly predictable) branch.
 */
class HashProbe : public Kernel<HashProbe>
{
  public:
    HashProbe() : Kernel("hash_probe") {}

  protected:
    void
    init() override
    {
        table_ = region(48 << 20); // bucket heads: random, misses
        keys_ = region(16 << 10);  // key staging: L1 resident
        k_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId key = intReg(1), h = intReg(2), ab = intReg(3),
                    node = intReg(4), val = intReg(5), cnt = intReg(6),
                    i = intReg(10);

        emitLoad(0, key, keys_.elem(k_, 8), i);         // key: hit
        emitOp(1, OpClass::IntAlu, h, key);             // hash: urgent
        emitOp(2, OpClass::IntMul, h, h);
        emitOp(3, OpClass::IntAlu, ab, h);
        emitLoad(4, node, table_.randElem(rng_, 8), ab); // bucket: miss
        // Probe the chain one hop (also a miss, dependent on the first).
        // Branch behaviour is periodic, hence predictable: random
        // directions would cap MLP at the mispredict distance and hide
        // the window effects this kernel exists to show (the paper's
        // omnetpp phases that classify sensitive are the predictable
        // ones for the same reason).
        bool second_hop = (iter_ % 4) == 1;
        emitBranch(5, !second_hop, 7, key);
        if (second_hop)
            emitLoad(6, node, table_.randElem(rng_, 8), node);
        // Four-deep payload processing: the Non-Ready slice that holds
        // IQ entries for the whole miss latency when not parked.
        emitOp(7, OpClass::IntAlu, val, node);          // NU+NR
        emitOp(8, OpClass::IntAlu, val, val, node);     // NU+NR
        emitOp(9, OpClass::IntAlu, val, val);           // NU+NR
        emitOp(10, OpClass::IntAlu, cnt, cnt, val);     // NU+NR
        // Match check: periodic rare "hit" path.
        emitBranch(11, (iter_ % 16) == 7, 12, key);
        emitOp(12, OpClass::IntAlu, i, i);
        emitBranch(13, true, 0, i);
        k_ += 1;
    }

  private:
    Region table_, keys_;
    std::uint64_t k_ = 0;
};

/**
 * mcf stand-in: six independent arc lists walked round-robin.  Each
 * next-pointer load is a serial chain of misses within its list
 * (Urgent + Non-Ready); three field loads per node provide fan-out,
 * and the window determines how many lists' misses overlap.
 */
class LinkedList : public Kernel<LinkedList>
{
  public:
    LinkedList() : Kernel("linked_list") {}

  protected:
    void
    init() override
    {
        list_ = region(32 << 20);
        fields_ = region(32 << 20);
        out_ = region(8 << 10);
        n_ = 0;
    }

    void
    emitIteration() override
    {
        int front = int(iter_ % 6);
        const RegId p = intReg(1 + front);
        const RegId f0 = intReg(12), f1 = intReg(13), f2 = intReg(14),
                    s = intReg(15), a = intReg(16), i = intReg(10);
        const int base = 16 * front;

        emitLoad(base + 0, p, list_.randElem(rng_, 8), p); // p = p->next
        emitOp(base + 1, OpClass::IntAlu, a, p);
        emitLoad(base + 2, f0, fields_.randElem(rng_, 8), a); // p->cost
        emitLoad(base + 3, f1, fields_.randElem(rng_, 8), a); // p->flow
        emitLoad(base + 4, f2, fields_.randElem(rng_, 8), a); // p->bound
        emitOp(base + 5, OpClass::IntAlu, s, f0, f1);         // NU+NR
        emitOp(base + 6, OpClass::IntAlu, s, s, f2);          // NU+NR
        emitStore(base + 7, out_.elem(n_ & 255, 8), s, i);
        emitOp(base + 8, OpClass::IntAlu, i, i);
        emitBranch(base + 9, true, 16 * int((iter_ + 1) % 6), i);
        n_ += 1;
    }

  private:
    Region list_, fields_, out_;
    std::uint64_t n_ = 0;
};

/**
 * Permutation walk: every iteration issues one fully independent DRAM
 * miss plus a handful of consumers — the cleanest possible
 * window-limited MLP workload (libquantum-with-irregular-stride
 * flavour).
 */
class BucketShuffle : public Kernel<BucketShuffle>
{
  public:
    BucketShuffle() : Kernel("bucket_shuffle") {}

  protected:
    void
    init() override
    {
        big_ = region(48 << 20);
        hist_ = region(8 << 10);
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId a = intReg(1), v = intReg(2), b = intReg(3),
                    c = intReg(4), d = intReg(5), e = intReg(6),
                    i = intReg(10), t = intReg(11);

        emitOp(0, OpClass::IntAlu, a, i);
        emitOp(1, OpClass::IntMul, a, a);                 // index hash
        emitLoad(2, v, big_.randElem(rng_, 8), a);        // miss
        // Five dependent consumers: the Non-Ready slice that clogs a
        // small IQ and makes the kernel window-limited rather than
        // DRAM-bandwidth-limited.
        emitOp(3, OpClass::IntAlu, b, v);                 // NU+NR
        emitOp(4, OpClass::IntAlu, c, b);                 // NU+NR
        emitOp(5, OpClass::IntAlu, d, c, v);              // NU+NR
        emitOp(6, OpClass::IntAlu, e, d);                 // NU+NR
        emitStore(7, hist_.elem(i_ & 511, 8), e, i);      // NU+NR
        emitOp(8, OpClass::IntAlu, i, i);
        emitOp(9, OpClass::IntAlu, t, i);
        emitBranch(10, true, 0, t);
        i_ += 1;
    }

  private:
    Region big_, hist_;
    std::uint64_t i_ = 0;
};

/**
 * B-tree descent: three dependent levels.  Root and inner nodes are
 * cache resident (hits); leaves live in a DRAM-sized region (miss).
 * Exercises mixed-readiness chains: the leaf load is Urgent + Non-Ready.
 */
class BtreeLookup : public Kernel<BtreeLookup>
{
  public:
    BtreeLookup() : Kernel("btree_lookup") {}

  protected:
    void
    init() override
    {
        root_ = region(4 << 10);    // L1 resident
        inner_ = region(192 << 10); // L2 resident
        leaves_ = region(40 << 20); // DRAM
        i_ = 0;
    }

    void
    emitIteration() override
    {
        const RegId key = intReg(1), n0 = intReg(2), n1 = intReg(3),
                    leaf = intReg(4), cmp = intReg(5), acc = intReg(6),
                    i = intReg(10);

        emitOp(0, OpClass::IntAlu, key, i);               // next key
        emitOp(1, OpClass::IntMul, key, key);
        emitLoad(2, n0, root_.randElem(rng_, 8), key);    // root: hit
        emitLoad(3, n1, inner_.randElem(rng_, 8), n0);    // inner: ~hit
        emitLoad(4, leaf, leaves_.randElem(rng_, 8), n1); // leaf: miss
        // Record-processing chain off the leaf: NU+NR slice.
        emitOp(5, OpClass::IntAlu, cmp, leaf);            // NU+NR
        emitOp(6, OpClass::IntAlu, cmp, cmp, leaf);       // NU+NR
        emitOp(7, OpClass::IntAlu, cmp, cmp);             // NU+NR
        // Branch on key bits (fast to resolve); a leaf-fed branch would
        // serialise every lookup on the miss latency.
        bool skip = rng_.chance(0.1);
        emitBranch(8, skip, 10, key);
        if (!skip)
            emitOp(9, OpClass::IntAlu, acc, acc, cmp);    // NU+NR
        emitOp(10, OpClass::IntAlu, i, i);
        emitBranch(11, true, 0, i);
        i_ += 1;
    }

  private:
    Region root_, inner_, leaves_;
    std::uint64_t i_ = 0;
};

} // namespace

WorkloadPtr makeGraphWalk() { return std::make_unique<GraphWalk>(); }
WorkloadPtr makeIndirectStreamFp()
{
    return std::make_unique<IndirectStreamFp>();
}
WorkloadPtr makeSparseGather() { return std::make_unique<SparseGather>(); }
WorkloadPtr makeHashProbe() { return std::make_unique<HashProbe>(); }
WorkloadPtr makeLinkedList() { return std::make_unique<LinkedList>(); }
WorkloadPtr makeBucketShuffle() { return std::make_unique<BucketShuffle>(); }
WorkloadPtr makeBtreeLookup() { return std::make_unique<BtreeLookup>(); }

} // namespace ltp
