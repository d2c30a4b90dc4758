/**
 * @file
 * Table II reproduction: the three simulated processor configurations,
 * registered as a SweepPlan config axis (the same declarative registry
 * the simulating benches sweep over) and printed from the plan.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "timing/config.hh"

using namespace uasim;

int
main(int argc, char **argv)
{
    const auto opt = bench::parseBenchArgs(argc, argv);
    std::printf("== Table II: processor configurations used in the "
                "simulation analysis ==\n\n");
    core::TextTable t;
    t.header({"parameter", "2-way", "4-way", "8-way"});

    core::SweepPlan plan;
    plan.addConfig("2-way", timing::CoreConfig::twoWayInOrder());
    plan.addConfig("4-way", timing::CoreConfig::fourWayOoO());
    plan.addConfig("8-way", timing::CoreConfig::eightWayOoO());
    const auto &c = plan.configs();

    auto artifact = bench::makeResult("table2_configs", opt);

    auto row3 = [&](const char *name, auto get) {
        t.row({name, std::to_string(get(c[0].cfg)),
               std::to_string(get(c[1].cfg)),
               std::to_string(get(c[2].cfg))});
        for (int i = 0; i < 3; ++i)
            artifact.addMetric(std::string(name) + "/" + c[i].label,
                               double(get(c[i].cfg)));
    };

    t.row({"issue policy", "in-order", "out-of-order", "out-of-order"});
    row3("fetch-rename-dispatch", [](auto &x) { return x.fetchWidth; });
    row3("retire", [](auto &x) { return x.retireWidth; });
    row3("inflight", [](auto &x) { return x.inflight; });
    row3("FX units", [](auto &x) { return x.units.fx; });
    row3("FP units", [](auto &x) { return x.units.fp; });
    row3("LS units", [](auto &x) { return x.units.ls; });
    row3("BR units", [](auto &x) { return x.units.br; });
    row3("VI units", [](auto &x) { return x.units.vi; });
    row3("VPERM units", [](auto &x) { return x.units.vperm; });
    row3("VCMPLX units", [](auto &x) { return x.units.vcmplx; });
    row3("phys regs (per file)", [](auto &x) { return x.gprPhys; });
    row3("BR issue queue", [](auto &x) { return x.branchQ; });
    row3("issue queue", [](auto &x) { return x.issueQ; });
    row3("ibuffer", [](auto &x) { return x.ibuffer; });
    row3("D$ read ports", [](auto &x) { return x.dReadPorts; });
    row3("D$ write ports", [](auto &x) { return x.dWritePorts; });
    row3("max outstanding misses", [](auto &x) { return x.missMax; });

    const auto &m = c[0].cfg.mem;
    t.row({"L1-D", std::to_string(m.l1d.size / 1024) + "KB/" +
                       std::to_string(m.l1d.assoc) + "way/" +
                       std::to_string(m.l1d.lineSize) + "B",
           "=", "="});
    t.row({"L1-I", std::to_string(m.l1i.size / 1024) + "KB/" +
                       std::to_string(m.l1i.assoc) + "way/" +
                       std::to_string(m.l1i.lineSize) + "B",
           "=", "="});
    t.row({"L2 (I+D)", std::to_string(m.l2.size / 1024) + "KB/" +
                           std::to_string(m.l2.assoc) + "way, " +
                           std::to_string(m.l2Latency) + " cyc",
           "=", "="});
    t.row({"main memory", std::to_string(m.memLatency) + " cyc", "=",
           "="});

    // The non-numeric rows travel as typed parameters.
    artifact.addParam("issue_policy_2way", json::Value("in-order"));
    artifact.addParam("issue_policy_4way", json::Value("out-of-order"));
    artifact.addParam("issue_policy_8way", json::Value("out-of-order"));
    artifact.addParam("l1d_bytes", json::Value(m.l1d.size));
    artifact.addParam("l1i_bytes", json::Value(m.l1i.size));
    artifact.addParam("l2_bytes", json::Value(m.l2.size));
    artifact.addParam("l2_latency_cyc", json::Value(m.l2Latency));
    artifact.addParam("mem_latency_cyc", json::Value(m.memLatency));

    std::printf("%s\n", t.str().c_str());

    bench::writeResultArtifact(opt, artifact);
    return 0;
}
