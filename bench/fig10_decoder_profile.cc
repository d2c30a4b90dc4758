/**
 * @file
 * Fig 10 reproduction: per-stage execution-time profile of the full
 * decoder for the scalar / Altivec / unaligned builds over the four
 * contents, plus the average.
 *
 * Methodology mirrors the paper's: it *estimated* full-application
 * impact from profiling. Here the functional decoder produces exact
 * per-stage work counts, the pipeline simulator prices each kernel
 * invocation on the 4-way core, and stage time = counts x costs
 * (scaled to seconds at a nominal 2.0 GHz). "Others" is the
 * variant-invariant glue measured as a fixed share of the scalar run.
 *
 * Both halves run through the sweep engine in one plan: every stage
 * microbenchmark of every variant is an independent trace cell on the
 * 4-way+network core, and each sequence's functional decode is a
 * mix-only job filling a per-sequence result slot.
 */

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "bench_util.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "decoder/codec.hh"
#include "decoder/profile.hh"

using namespace uasim;
using dec::StageCounts;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(
        argc, argv,
        {{"--frames", core::CliFlag::Int, "N", 1},
         {"--qp", core::CliFlag::Int, "QP"},
         {"--full-res"}});
    const int frames = opt.size("--frames", 4, 1);
    const int qp = opt.args.number("--qp", 34);
    const bool full = opt.args.has("--full-res");
    const double hz = 2.0e9;

    // Functional decodes are cheap; default to CIF-ish size so the
    // bench finishes quickly, switchable to the paper's 576p.
    video::Resolution res = full ? video::resolutions[0]
                                 : video::Resolution{352, 288, "cif"};

    dec::CodecConfig codec;
    codec.qp = qp;
    codec.frames = frames;
    try {
        dec::validate(codec);
    } catch (const std::invalid_argument &e) {
        opt.args.fail("--qp", e.what());
    }

    std::printf("== Fig 10: profiling of scalar, altivec and altivec+"
                "unaligned H.264 decoder ==\n(%dx%d, %d frames/seq, "
                "qp %d, 4-way core, %.1f GHz; seconds per run)\n\n",
                res.width, res.height, frames, qp, hz / 1e9);

    auto core = timing::CoreConfig::fourWayOoO();
    core.lat.unalignedLoadExtra = 1;   // the proposed network
    core.lat.unalignedStoreExtra = 2;

    const video::Content contents[] = {
        video::Content::BlueSky, video::Content::Pedestrian,
        video::Content::Riverbed, video::Content::RushHour};
    const int numSeqs = int(std::size(contents));

    // One plan: stage-cost cells (timed on the 4-way+network core)
    // plus a mix-only functional-decode job per sequence.
    core::SweepPlan plan;
    int cfg4w = plan.addConfig("4w+net", core);
    std::vector<dec::StageCostJob> jobs[3];
    for (int v = 0; v < h264::numVariants; ++v) {
        auto variant = static_cast<h264::Variant>(v);
        jobs[v] = dec::stageCostJobs(variant);
        for (const auto &job : jobs[v]) {
            // The divisor doubles as the stage's workload size, so it
            // belongs in the persistent cache key.
            int t = plan.addTrace(
                {std::string(h264::variantName(variant)) + "/" +
                     job.key + "/" + std::to_string(job.divisor),
                 job.record});
            plan.addCell(t, cfg4w);
        }
    }
    std::vector<StageCounts> seq_counts(numSeqs);
    for (int i = 0; i < numSeqs; ++i) {
        auto content = contents[i];
        // Not cacheable: the functional decode's output is the side
        // effect of filling seq_counts[i], not a record stream.
        int t = plan.addTrace(
            {std::string("decode/") +
                 std::string(video::contentName(content)),
             [&, i, content](trace::TraceSink &) {
                 dec::CodecConfig cfg = codec;
                 cfg.seq = video::makeParams(content, res);
                 dec::MiniEncoder enc(cfg);
                 dec::MiniDecoder decd(cfg);
                 for (int f = 0; f < frames; ++f)
                     decd.decodeFrame(enc.encodeFrame(f),
                                      seq_counts[i]);
             },
             /*cacheable=*/false});
        plan.addCell(t, core::SweepCell::mixOnly);
    }

    auto runner = bench::makeSweepRunner(opt);
    auto results = runner.run(plan);

    auto artifact =
        bench::makeResult("fig10_decoder_profile", opt);
    artifact.addParam("frames", json::Value(frames));
    artifact.addParam("qp", json::Value(qp));
    artifact.addParam("resolution",
                      json::Value(std::string(res.label)));

    // Stage costs per variant, reassembled in plan cell order.
    dec::StageCosts costs[3];
    int cell = 0;
    for (int v = 0; v < h264::numVariants; ++v) {
        for (const auto &job : jobs[v]) {
            job.assign(costs[v], double(results[cell].sim.cycles) /
                                     job.divisor);
            ++cell;
        }
    }

    core::TextTable t;
    t.header({"sequence", "variant", "MC", "IDCT", "Deb.Filter",
              "CABAC", "VideoOut", "Others", "TOTAL", "vs scalar"});

    auto emit_rows = [&](const std::string &name,
                         const StageCounts &counts) {
        double scalar_total = 0;
        double scalar_seconds = 0;
        for (int v = 0; v < h264::numVariants; ++v) {
            // Others: fixed 8% of the scalar stage subtotal, the same
            // absolute cycles in every variant.
            auto probe = dec::estimateProfile(counts, costs[v], 0.0);
            if (v == 0)
                scalar_total = probe.totalCycles();
            double others = 0.08 * scalar_total;
            auto est = dec::estimateProfile(counts, costs[v], others);
            double total_s = est.seconds(hz);
            if (v == 0)
                scalar_seconds = total_s;
            t.row({name,
                   std::string(h264::variantName(
                       static_cast<h264::Variant>(v))),
                   core::fmt(est.mc / hz, 3),
                   core::fmt(est.idct / hz, 3),
                   core::fmt(est.deblock / hz, 3),
                   core::fmt(est.cabac / hz, 3),
                   core::fmt(est.videoOut / hz, 3),
                   core::fmt(est.others / hz, 3),
                   core::fmt(total_s, 3),
                   core::fmt(scalar_seconds / total_s) + "x"});
            const std::string m =
                name + "/" +
                std::string(h264::variantName(
                    static_cast<h264::Variant>(v)));
            artifact.addMetric(m + "/mc_s", est.mc / hz);
            artifact.addMetric(m + "/idct_s", est.idct / hz);
            artifact.addMetric(m + "/deblock_s", est.deblock / hz);
            artifact.addMetric(m + "/cabac_s", est.cabac / hz);
            artifact.addMetric(m + "/video_out_s", est.videoOut / hz);
            artifact.addMetric(m + "/others_s", est.others / hz);
            artifact.addMetric(m + "/total_s", total_s);
            artifact.addMetric(m + "/vs_scalar",
                               scalar_seconds / total_s);
        }
        t.row({"", "", "", "", "", "", "", "", "", ""});
    };

    dec::StageCounts avg_counts;
    for (int i = 0; i < numSeqs; ++i) {
        avg_counts += seq_counts[i];
        emit_rows(std::string(video::contentName(contents[i])),
                  seq_counts[i]);
    }
    emit_rows("AVG", avg_counts);

    std::printf("%s\n", t.str().c_str());

    bench::finishArtifact(opt, artifact, results, runner);
    std::printf(
        "Paper reference (section V-D): Altivec is ~1.2X over scalar; "
        "unaligned\ninstructions add ~1.2X over plain Altivec (~1.49X "
        "over scalar on average);\nriverbed-style content benefits "
        "least because few blocks are inter-coded,\nso MC matters "
        "less.\n");
    return 0;
}
