/**
 * @file
 * Ablation of the paper's §6.1.5 proposal: "an adaptive system where
 * the action [on a positive prediction] is chosen dynamically.
 * Typically, the action would be that of Superset Agg. However, if the
 * system needs to save energy, it would use the action of Superset
 * Con."
 *
 * Runs the AdaptiveSuperset policy with an EnergyBudgetController
 * sampling fixed-length epochs, against pure Superset Con and pure
 * Superset Agg, and reports where the adaptive point lands on the
 * (execution time, energy) plane.
 */

#include <iomanip>
#include <iostream>

#include "bench_common.hh"
#include "snoop/adaptive_switcher.hh"
#include "workload/synthetic_generator.hh"

using namespace flexsnoop;
using namespace flexsnoop::bench;

namespace
{

struct AdaptiveOutcome
{
    RunResult result;
    std::uint64_t epochs = 0;
    std::uint64_t conservativeEpochs = 0;
};

/** Run AdaptiveSuperset with an epoch-driven budget controller. */
AdaptiveOutcome
runAdaptive(const WorkloadProfile &profile, double high_nj_per_req,
            double low_nj_per_req, Cycle epoch_cycles)
{
    MachineConfig cfg = MachineConfig::paperDefault(
        Algorithm::AdaptiveSuperset, profile.coresPerCmp);
    SyntheticGenerator gen(profile);
    const CoreTraces traces = gen.generate();

    Machine machine(cfg);
    auto &policy = dynamic_cast<AdaptiveSupersetPolicy &>(machine.policy());
    EnergyBudgetController controller(policy, high_nj_per_req,
                                      low_nj_per_req);

    WorkloadRunner runner(machine.queue(), machine.controller(), traces,
                          cfg.core);

    // Epoch sampler: feed the controller the energy/request deltas.
    // Stops rescheduling once the workload drains so the event queue
    // can empty.
    struct EpochState
    {
        double lastEnergy = 0.0;
        std::uint64_t lastRequests = 0;
    };
    auto state = std::make_shared<EpochState>();
    std::function<void()> sample = [&machine, &controller, &runner, state,
                                    epoch_cycles, &sample]() {
        if (runner.allDone())
            return;
        const double energy = machine.energy().totalNj();
        const std::uint64_t requests =
            machine.controller().readRequests();
        controller.sampleEpoch(energy - state->lastEnergy,
                               requests - state->lastRequests);
        state->lastEnergy = energy;
        state->lastRequests = requests;
        machine.queue().schedule(epoch_cycles, sample);
    };
    machine.queue().schedule(epoch_cycles, sample);
    runner.setWarmupDoneFn([&machine]() { machine.resetStats(); });
    const Cycle measured = runner.run();
    machine.finalizeEnergy();

    AdaptiveOutcome out;
    out.result.workload = profile.name;
    out.result.algorithm = "Adaptive";
    out.result.execCycles = measured;
    out.result.energyNj = machine.energy().totalNj();
    out.result.readRingRequests =
        machine.controller().stats().counterValue("read_ring_requests");
    out.result.snoopsPerReadRequest =
        machine.controller().snoopsPerReadRequest();
    out.epochs = controller.epochs();
    out.conservativeEpochs = controller.conservativeEpochs();
    return out;
}

} // namespace

int
main()
{
    std::cout << "=== Ablation: adaptive Superset Con/Agg switching "
                 "(paper 6.1.5) ===\n";

    auto profile = profileByName("barnes");
    scaleProfile(profile, 10000, 3000);

    std::cerr << "  running pure Con and Agg...\n";
    const SweepResult pure = runSweeps(
        {Algorithm::SupersetCon, Algorithm::SupersetAgg}, {profile},
        benchJobs())[0];
    const RunResult &con = pure.runs[0];
    const RunResult &agg = pure.runs[1];

    // Budget thresholds between Con's and Agg's per-request energy.
    const double con_per_req = con.energyNj / con.readRingRequests;
    const double agg_per_req = agg.energyNj / agg.readRingRequests;
    const double mid = (con_per_req + agg_per_req) / 2.0;

    std::cerr << "  running adaptive...\n";
    const AdaptiveOutcome adaptive =
        runAdaptive(profile, mid * 1.05, mid * 0.95, 50000);

    std::cout << '\n'
              << std::left << std::setw(14) << "policy" << std::right
              << std::setw(14) << "exec cycles" << std::setw(14)
              << "energy (uJ)" << std::setw(12) << "snoops/req" << '\n'
              << std::string(54, '-') << '\n';
    auto row = [](const std::string &name, const RunResult &r) {
        std::cout << std::left << std::setw(14) << name << std::right
                  << std::setw(14) << r.execCycles << std::fixed
                  << std::setprecision(1) << std::setw(14)
                  << r.energyNj / 1e3 << std::setprecision(2)
                  << std::setw(12) << r.snoopsPerReadRequest << '\n';
    };
    row("SupersetCon", con);
    row("SupersetAgg", agg);
    row("Adaptive", adaptive.result);
    std::cout << "\nadaptive spent " << adaptive.conservativeEpochs
              << " of " << adaptive.epochs
              << " epochs in Conservative mode\n";

    const bool between_time =
        adaptive.result.execCycles <= con.execCycles * 101 / 100;
    const bool between_energy =
        adaptive.result.energyNj <= agg.energyNj * 1.01;
    std::cout << "\nexpectation: the adaptive point sits between the two "
                 "pure policies on both axes: "
              << (between_time && between_energy ? "PASS" : "CHECK")
              << '\n';
    return 0;
}
