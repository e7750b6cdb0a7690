/**
 * @file
 * Out-of-order core timing tests with scripted instruction streams.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cpu/ooo_core.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "sim/checkpoint.hh"

namespace drisim
{
namespace
{

/** Replays a fixed vector of instructions. */
class VecStream : public InstrStream
{
  public:
    explicit VecStream(std::vector<Instr> v) : v_(std::move(v)) {}

    bool
    next(Instr &out) override
    {
        if (idx_ >= v_.size())
            return false;
        out = v_[idx_++];
        return true;
    }

    /** Instructions handed out so far; seek() resumes there. */
    size_t position() const { return idx_; }
    void seek(size_t idx) { idx_ = idx; }

  private:
    std::vector<Instr> v_;
    size_t idx_ = 0;
};

Instr
alu(Addr pc, std::uint8_t dest, std::uint8_t src1 = 0,
    std::uint8_t src2 = 0)
{
    Instr i;
    i.pc = pc;
    i.op = OpClass::IntAlu;
    i.dest = dest;
    i.src1 = src1;
    i.src2 = src2;
    i.nextPc = pc + kInstrBytes;
    return i;
}

/** n independent single-cycle instructions, consecutive PCs. */
std::vector<Instr>
independent(int n, Addr base = 0x1000)
{
    std::vector<Instr> v;
    for (int i = 0; i < n; ++i)
        v.push_back(alu(base + static_cast<Addr>(i) * 4,
                        static_cast<std::uint8_t>(1 + (i % 30))));
    return v;
}

/** n chained instructions (each reads the previous result). */
std::vector<Instr>
chained(int n, Addr base = 0x1000)
{
    std::vector<Instr> v;
    std::uint8_t prev = 0;
    for (int i = 0; i < n; ++i) {
        const auto d = static_cast<std::uint8_t>(1 + (i % 30));
        v.push_back(alu(base + static_cast<Addr>(i) * 4, d, prev));
        prev = d;
    }
    return v;
}

struct CoreRig
{
    explicit CoreRig(Cycles icacheHit = 1)
        : root("t"),
          mem(32, &root),
          icache(
              CacheParams{"ic", 64 * 1024, 1, 32, icacheHit,
                          ReplPolicy::LRU},
              &mem, &root),
          dcache(
              CacheParams{"dc", 64 * 1024, 2, 32, 1, ReplPolicy::LRU},
              &mem, &root),
          core(OooParams{}, &icache, &dcache, &root)
    {
    }

    stats::StatGroup root;
    MainMemory mem;
    Cache icache;
    Cache dcache;
    OooCore core;
};

TEST(OooCore, CommitsEverything)
{
    CoreRig rig;
    VecStream s(independent(1000));
    auto r = rig.core.run(s, 1u << 30);
    EXPECT_EQ(r.instructions, 1000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(OooCore, MaxInstrsBoundsTheRun)
{
    CoreRig rig;
    VecStream s(independent(1000));
    auto r = rig.core.run(s, 100);
    EXPECT_EQ(r.instructions, 100u);
}

TEST(OooCore, IndependentStreamNearsFetchWidth)
{
    CoreRig rig;
    const int n = 4000;
    // Pre-warm the i-cache so fetch never misses.
    for (Addr a = 0x1000; a < 0x1000 + n * 4u; a += 32)
        rig.icache.access(a, AccessType::InstFetch);
    VecStream s(independent(n));
    auto r = rig.core.run(s, 1u << 30);
    // 8-wide fetch of 8-instruction blocks: IPC approaches 8.
    EXPECT_GT(r.ipc(), 5.0);
}

TEST(OooCore, DependentChainSerializes)
{
    CoreRig rig;
    const int n = 2000;
    VecStream s(chained(n));
    auto r = rig.core.run(s, 1u << 30);
    // One instruction per cycle at best.
    EXPECT_GE(r.cycles, static_cast<Cycles>(n));
    EXPECT_LT(r.ipc(), 1.1);
}

TEST(OooCore, ColdIcacheMissesCostFullFillLatency)
{
    CoreRig rig;
    // One instruction per 32 B block: every fetch is a new block.
    std::vector<Instr> v;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        Instr ins = alu(0x1000 + static_cast<Addr>(i) * 32, 1);
        ins.nextPc = ins.pc + 32; // pretend sequential-ish
        v.push_back(ins);
    }
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    // Every block misses L1I -> L2 miss -> memory (1+12+96).
    EXPECT_GT(r.cycles, static_cast<Cycles>(n) * 80);
    EXPECT_EQ(rig.icache.misses(), static_cast<std::uint64_t>(n));
    EXPECT_GT(rig.core.icacheStallCycles(), 0u);
}

TEST(OooCore, PredictableLoopBranchesAreCheap)
{
    // A tight loop of 8 instructions, last one a taken branch back.
    std::vector<Instr> v;
    const int iters = 800;
    for (int it = 0; it < iters; ++it) {
        for (int i = 0; i < 7; ++i)
            v.push_back(alu(0x1000 + static_cast<Addr>(i) * 4,
                            static_cast<std::uint8_t>(1 + i)));
        Instr br;
        br.pc = 0x1000 + 7 * 4;
        br.op = OpClass::Branch;
        br.taken = it + 1 < iters;
        br.nextPc = br.taken ? 0x1000 : br.pc + 4;
        v.push_back(br);
    }
    CoreRig rig;
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    // Predictor learns the loop; IPC stays healthy.
    EXPECT_GT(r.ipc(), 3.0);
}

TEST(OooCore, RandomBranchesStallFetch)
{
    // Same loop shape but with pseudo-random directions to two
    // different targets: the predictor cannot learn it.
    std::vector<Instr> v;
    std::uint32_t lfsr = 0xACE1u;
    Addr pc_a = 0x1000;
    Addr pc_b = 0x8000;
    Addr cur = pc_a;
    for (int it = 0; it < 1500; ++it) {
        for (int i = 0; i < 3; ++i)
            v.push_back(alu(cur + static_cast<Addr>(i) * 4,
                            static_cast<std::uint8_t>(1 + i)));
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        const bool taken = lfsr & 1;
        Instr br;
        br.pc = cur + 3 * 4;
        br.op = OpClass::Branch;
        br.taken = taken;
        const Addr other = cur == pc_a ? pc_b : pc_a;
        br.nextPc = taken ? other : br.pc + 4;
        v.push_back(br);
        if (taken)
            cur = other;
        // continue from fallthrough? keep PCs consistent:
        if (!taken)
            cur = br.pc + 4 - 3 * 4; // restart block base
    }
    CoreRig rig;
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    EXPECT_GT(rig.core.branchStallCycles(), r.cycles / 10);
    EXPECT_LT(r.ipc(), 3.0);
}

TEST(OooCore, LoadMissesSlowTheChain)
{
    // Chained loads: each load feeds the next address (pointer
    // chase) over a working set far larger than the L1D.
    std::vector<Instr> v;
    const int n = 400;
    std::uint8_t prev = 1;
    for (int i = 0; i < n; ++i) {
        Instr ld;
        ld.pc = 0x1000 + static_cast<Addr>(i % 8) * 4;
        ld.op = OpClass::Load;
        ld.dest = static_cast<std::uint8_t>(1 + (i % 30));
        ld.src1 = prev;
        ld.memAddr = 0x10000000 + static_cast<Addr>(i) * 4096;
        ld.nextPc = ld.pc + 4;
        prev = ld.dest;
        v.push_back(ld);
    }
    CoreRig rig;
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    // Every load misses (d-cache 1 + memory 96 + AGU 1) in a
    // serial chain: ~98 cycles per load.
    EXPECT_GT(r.cycles, static_cast<Cycles>(n) * 95);
    EXPECT_LT(r.cycles, static_cast<Cycles>(n) * 105);
}

TEST(OooCore, StoreToLoadForwardingAvoidsDcache)
{
    std::vector<Instr> v;
    // store to X, then immediately load X, many times.
    for (int i = 0; i < 100; ++i) {
        Instr st;
        st.pc = 0x1000 + static_cast<Addr>(i % 8) * 4;
        st.op = OpClass::Store;
        st.src1 = 1;
        st.memAddr = 0x2000;
        st.nextPc = st.pc + 4;
        v.push_back(st);
        Instr ld;
        ld.pc = st.pc + 4;
        ld.op = OpClass::Load;
        ld.dest = 2;
        ld.memAddr = 0x2000;
        ld.nextPc = ld.pc + 4;
        v.push_back(ld);
    }
    CoreRig rig;
    VecStream s(v);
    rig.core.run(s, 1u << 30);
    // Forwarded loads never reach the d-cache; stores write at
    // commit. So d-cache sees (nearly) only store traffic.
    const auto *g = rig.dcache.statGroup().find("load_accesses");
    ASSERT_NE(g, nullptr);
    const auto *loads = dynamic_cast<const stats::Scalar *>(g);
    ASSERT_NE(loads, nullptr);
    // A handful of loads can slip past forwarding when the store
    // commits first; the overwhelming majority must forward.
    EXPECT_LE(loads->value(), 10u);
}

/** dcache loads that reached the array (forwarded ones do not). */
std::uint64_t
dcacheLoads(CoreRig &rig)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(
        rig.dcache.statGroup().find("load_accesses"));
    return s ? s->value() : ~std::uint64_t{0};
}

TEST(OooCore, RestoreRederivesInFlightStoreForwarding)
{
    // A 40-op FP chain; its 30th result feeds a store to X; 100
    // fillers and a load of X follow. The second of two passes over
    // that code fetches from a warm i-cache, so the ROB fills behind
    // the chain: the load is dispatched only after some chain ops
    // commit, while the store still waits, and forwards from the
    // store (which completes before the older chain tail, so it is
    // still in the ROB when the load issues).
    std::vector<Instr> v;
    Addr pc = 0x1000;
    const auto add = [&](Instr i) {
        i.pc = pc;
        i.nextPc = pc + kInstrBytes;
        pc += kInstrBytes;
        v.push_back(i);
    };
    for (int k = 0; k < 40; ++k) {
        Instr f;
        f.op = OpClass::FpAlu;
        f.dest = 1;
        f.src1 = 1;
        add(f);
        if (k == 29) {
            f.dest = 3;
            add(f);
        }
    }
    Instr st;
    st.op = OpClass::Store;
    st.src1 = 3;
    st.memAddr = 0x2000;
    add(st);
    for (int k = 0; k < 100; ++k)
        add(alu(0, static_cast<std::uint8_t>(2 + k % 20)));
    Instr ld;
    ld.op = OpClass::Load;
    ld.dest = 30;
    ld.memAddr = 0x2000;
    add(ld);
    const std::size_t pass = v.size();
    for (std::size_t i = 0; i < pass; ++i)
        v.push_back(v[i]);

    CoreRig plain;
    VecStream ps(v);
    plain.core.run(ps, 1u << 30);
    // Only the cold first pass's load reaches the d-cache.
    ASSERT_EQ(dcacheLoads(plain), 1u);

    // Split before the load is dispatched: the restored core must
    // rebuild the store's forwarding word from the ROB.
    CoreRig first;
    VecStream fs(v);
    first.core.run(fs, pass + 8);
    ASSERT_EQ(first.core.schedulerOccupancy().loadsOnStore, 0u);
    sim::CheckpointWriter w;
    first.core.snapshotTo(w);
    first.icache.snapshotTo(w);
    first.dcache.snapshotTo(w);
    first.mem.snapshotTo(w);

    CoreRig second;
    sim::CheckpointReader r(w.bytes());
    second.core.restoreFrom(r);
    second.icache.restoreFrom(r);
    second.dcache.restoreFrom(r);
    second.mem.restoreFrom(r);
    VecStream ss(v);
    ss.seek(fs.position());
    second.core.run(ss, 1u << 30);

    EXPECT_EQ(second.core.cycles(), plain.core.cycles());
    EXPECT_EQ(dcacheLoads(second), 1u);
    std::ostringstream a, b;
    plain.root.dump(a);
    second.root.dump(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(OooCore, RestoreRejectsSequencesOutsideTheRob)
{
    CoreRig rig;
    VecStream s(independent(1000));
    rig.core.run(s, 500);
    sim::CheckpointWriter w;
    rig.core.snapshotTo(w);
    std::string blob = w.bytes();

    // seqHead_ (500, the committed count) is stored as an I64 and
    // followed by seqTail_; stretch the window past the ROB.
    const auto i64 = [](std::int64_t v) {
        std::string b(1, 'I');
        for (int k = 0; k < 8; ++k)
            b.push_back(static_cast<char>(
                static_cast<std::uint64_t>(v) >> (8 * k)));
        return b;
    };
    const std::size_t at = blob.find(i64(500) + 'I');
    ASSERT_NE(at, std::string::npos);
    blob.replace(at + 9, 9, i64(500 + 10000));

    CoreRig bad;
    sim::CheckpointReader r(blob);
    try {
        bad.core.restoreFrom(r);
        FAIL() << "restored a window larger than the ROB";
    } catch (const sim::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("ROB window"),
                  std::string::npos)
            << e.what();
    }
}

TEST(OooCore, DrainsAndStops)
{
    CoreRig rig;
    VecStream s(independent(10));
    auto r = rig.core.run(s, 1u << 30);
    EXPECT_EQ(r.instructions, 10u);
    // Run again with an empty stream: nothing more commits.
    VecStream empty({});
    auto r2 = rig.core.run(empty, 1u << 30);
    EXPECT_EQ(r2.instructions, 10u);
}

TEST(OooParams, ExecLatencies)
{
    EXPECT_EQ(OooParams::execLatency(OpClass::IntAlu), 1u);
    EXPECT_EQ(OooParams::execLatency(OpClass::IntMul), 3u);
    EXPECT_EQ(OooParams::execLatency(OpClass::FpAlu), 4u);
    EXPECT_EQ(OooParams::execLatency(OpClass::Branch), 1u);
}

} // namespace
} // namespace drisim
