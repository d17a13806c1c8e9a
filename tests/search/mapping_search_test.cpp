/// \file
/// Tests for the SW-level (inner) mapping search.

#include "search/mapping_search.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dnn/model_zoo.hpp"
#include "hw/accelerator.hpp"
#include "hw/msp430_lea.hpp"

namespace chrysalis::search {
namespace {

sim::EnergyEnv
make_env(double p_eh_w, double cap_f = 470e-6)
{
    sim::EnergyEnv env;
    env.p_eh_w = p_eh_w;
    env.capacitor.capacitance_f = cap_f;
    return env;
}

TEST(MappingSearchTest, FindsFeasibleMappingForKws)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    const auto result = search_mappings(model, mcu, {make_env(16e-3)},
                                        MappingSearchOptions{});
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.mappings.size(), model.layer_count());
    EXPECT_TRUE(result.cost.feasible);
    EXPECT_GT(result.evaluations, 0);
}

TEST(MappingSearchTest, WeakerEnvironmentForcesMoreTiles)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    const MappingSearchOptions options;
    const auto rich = search_mappings(model, mcu,
                                      {make_env(40e-3, 100e-6)}, options);
    const auto poor = search_mappings(model, mcu,
                                      {make_env(2e-3, 100e-6)}, options);
    ASSERT_TRUE(rich.feasible);
    ASSERT_TRUE(poor.feasible);
    // §III-B3: "in the case of low environmental energy each layer of the
    // network will be divided into a larger number of tiles."
    EXPECT_GE(poor.cost.n_tile, rich.cost.n_tile);
}

TEST(MappingSearchTest, FeasibilityMustHoldInAllEnvironments)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    const MappingSearchOptions options;
    // The darker environment binds: searching with both must produce a
    // plan whose worst tile fits the darker cycle budget.
    const auto both = search_mappings(
        model, mcu, {make_env(40e-3, 100e-6), make_env(2e-3, 100e-6)},
        options);
    ASSERT_TRUE(both.feasible);
    const sim::EnergyEnv dark = make_env(2e-3, 100e-6);
    const double budget =
        sim::cycle_budget(dark, both.cost.max_tile_time_s());
    EXPECT_LE(both.cost.max_tile_energy_j(), budget * (1.0 + 1e-9));
}

TEST(MappingSearchTest, ImpossibleEnvironmentReportsViolation)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    // Leakage-dominated: 10 mF at 0.05 mW harvest can never run.
    const auto result = search_mappings(
        model, mcu, {make_env(0.05e-3, 10e-3)}, MappingSearchOptions{});
    EXPECT_FALSE(result.feasible);
    EXPECT_GT(result.violation_j, 0.0);
}

TEST(MappingSearchTest, RestrictsToSupportedDataflows)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;  // supports WS and OS only
    const auto result = search_mappings(model, mcu, {make_env(16e-3)},
                                        MappingSearchOptions{});
    for (const auto& mapping : result.mappings) {
        EXPECT_TRUE(mapping.dataflow ==
                        dataflow::Dataflow::kWeightStationary ||
                    mapping.dataflow ==
                        dataflow::Dataflow::kOutputStationary);
    }
}

TEST(MappingSearchTest, GeneticStrategyIsCompetitive)
{
    const auto model = dnn::make_har_cnn();
    const hw::Msp430Lea mcu;
    MappingSearchOptions exhaustive;
    MappingSearchOptions genetic;
    genetic.strategy = MappingSearchOptions::Strategy::kGenetic;
    genetic.ga_population = 24;
    genetic.ga_generations = 12;
    genetic.seed = 9;
    const auto envs = {make_env(8e-3)};
    const auto a = search_mappings(model, mcu, envs, exhaustive);
    const auto b = search_mappings(model, mcu, envs, genetic);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    // GA should land within 2x of exhaustive energy.
    EXPECT_LT(b.cost.total_energy_j(),
              a.cost.total_energy_j() * 2.0);
}

TEST(MappingSearchTest, AcceleratorSearchUsesTaxonomyChoice)
{
    const auto model = dnn::make_alexnet();
    hw::ReconfigurableAccelerator::Config config;
    config.arch = hw::AcceleratorArch::kEyeriss;
    config.n_pe = 64;
    config.cache_bytes_per_pe = 512;
    const hw::ReconfigurableAccelerator accel(config);
    const auto result = search_mappings(
        model, accel, {make_env(40e-3, 1e-3)}, MappingSearchOptions{});
    EXPECT_EQ(result.mappings.size(), model.layer_count());
    EXPECT_GT(result.evaluations, 100);
}

TEST(MappingSearchTest, DeterministicForSeed)
{
    const auto model = dnn::make_har_cnn();
    const hw::Msp430Lea mcu;
    MappingSearchOptions options;
    options.strategy = MappingSearchOptions::Strategy::kGenetic;
    options.seed = 17;
    const auto envs = {make_env(8e-3)};
    const auto a = search_mappings(model, mcu, envs, options);
    const auto b = search_mappings(model, mcu, envs, options);
    EXPECT_DOUBLE_EQ(a.cost.total_energy_j(), b.cost.total_energy_j());
}

TEST(MappingSearchTest, TableIvWorkloadsFitMspFram)
{
    const hw::Msp430Lea mcu;
    for (const auto& name : dnn::table4_workloads()) {
        const auto model = dnn::make_model(name);
        const auto result = search_mappings(
            model, mcu, {make_env(16e-3)}, MappingSearchOptions{});
        EXPECT_TRUE(result.feasible) << name << ": "
                                     << result.failure.message();
    }
}

TEST(MappingSearchTest, OversizedModelFailsFramCapacity)
{
    // AlexNet's 61M weights cannot fit the MSP430's 256 KiB FRAM.
    const hw::Msp430Lea mcu;
    const auto model = dnn::make_alexnet();
    const auto result = search_mappings(model, mcu, {make_env(16e-3)},
                                        MappingSearchOptions{});
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.failure.code,
              fault::FailureCode::kNvmCapacityExceeded);
}

TEST(MappingSearchTest, AcceleratorNvmIsUnlimited)
{
    hw::ReconfigurableAccelerator::Config config;
    const hw::ReconfigurableAccelerator accel(config);
    EXPECT_EQ(accel.nvm_capacity_bytes(), 0);  // provisioned externally
}

/// A model holding only \p layer, with \p model's input and element size.
dnn::Model
single_layer_model(const dnn::Model& model, const dnn::Layer& layer)
{
    dnn::Model single(model.name(), model.input(), model.element_bytes());
    single.add_layer(layer);
    return single;
}

bool
same_shape(const dnn::Layer& a, const dnn::Layer& b)
{
    return a.kind == b.kind && a.dims == b.dims && a.stride == b.stride &&
           a.in_h == b.in_h && a.in_w == b.in_w;
}

void
expect_same_cost(const dataflow::LayerCost& a, const dataflow::LayerCost& b,
                 const std::string& where)
{
    EXPECT_EQ(a.feasible, b.feasible) << where;
    EXPECT_EQ(a.macs, b.macs) << where;
    EXPECT_EQ(a.n_tile, b.n_tile) << where;
    EXPECT_EQ(a.ckpt_bytes, b.ckpt_bytes) << where;
    EXPECT_EQ(a.ckpt_pair_energy_j, b.ckpt_pair_energy_j) << where;
    EXPECT_EQ(a.nvm_read_bytes, b.nvm_read_bytes) << where;
    EXPECT_EQ(a.nvm_write_bytes, b.nvm_write_bytes) << where;
    EXPECT_EQ(a.vm_required_bytes, b.vm_required_bytes) << where;
    EXPECT_EQ(a.utilization, b.utilization) << where;
    EXPECT_EQ(a.compute_time_s, b.compute_time_s) << where;
    EXPECT_EQ(a.nvm_time_s, b.nvm_time_s) << where;
    EXPECT_EQ(a.ckpt_time_s, b.ckpt_time_s) << where;
    EXPECT_EQ(a.time_s, b.time_s) << where;
    EXPECT_EQ(a.e_compute_j, b.e_compute_j) << where;
    EXPECT_EQ(a.e_vm_j, b.e_vm_j) << where;
    EXPECT_EQ(a.e_nvm_j, b.e_nvm_j) << where;
    EXPECT_EQ(a.e_static_j, b.e_static_j) << where;
    EXPECT_EQ(a.e_ckpt_j, b.e_ckpt_j) << where;
}

class RepeatedShapeTest
    : public ::testing::TestWithParam<hw::AcceleratorArch> {
  protected:
    static hw::ReconfigurableAccelerator
    accelerator(hw::AcceleratorArch arch)
    {
        hw::ReconfigurableAccelerator::Config config;
        config.arch = arch;
        config.n_pe = 64;
        config.cache_bytes_per_pe = 512;
        return hw::ReconfigurableAccelerator(config);
    }

    /// Environment sets where every layer fits, where a few layers
    /// overshoot Eq. 8 in the second environment only, and where most
    /// layers overshoot: the violation and failure paths are exercised.
    static std::vector<std::vector<sim::EnergyEnv>>
    environment_sets()
    {
        return {{make_env(40e-3, 1e-3), make_env(8e-3, 1e-3)},
                {make_env(10e-3, 2.2e-6), make_env(1e-3, 1e-6)},
                {make_env(1e-3, 470e-9)}};
    }
};

TEST_P(RepeatedShapeTest, EachLayerMatchesItsOwnOneLayerSearch)
{
    const auto model = dnn::make_resnet18();
    const auto accel = accelerator(GetParam());
    const MappingSearchOptions options;
    bool saw_violation = false;
    for (const auto& envs : environment_sets()) {
        const auto full = search_mappings(model, accel, envs, options);
        ASSERT_EQ(full.mappings.size(), model.layer_count());
        ASSERT_EQ(full.cost.layers.size(), model.layer_count());
        double violation_j = 0.0;
        fault::SimFailure first_failure;
        std::size_t first_failing = model.layer_count();
        for (std::size_t i = 0; i < model.layer_count(); ++i) {
            const auto single = search_mappings(
                single_layer_model(model, model.layer(i)), accel, envs,
                options);
            const std::string where =
                model.layer(i).name + " (layer " + std::to_string(i) + ")";
            ASSERT_EQ(single.mappings.size(), 1u) << where;
            EXPECT_EQ(full.mappings[i].dataflow,
                      single.mappings[0].dataflow) << where;
            EXPECT_EQ(full.mappings[i].tiles_k, single.mappings[0].tiles_k)
                << where;
            EXPECT_EQ(full.mappings[i].tiles_y, single.mappings[0].tiles_y)
                << where;
            EXPECT_EQ(full.mappings[i].tiles_n, single.mappings[0].tiles_n)
                << where;
            expect_same_cost(full.cost.layers[i], single.cost.layers[0],
                             where);
            violation_j += single.violation_j;
            if (single.failure && first_failing == model.layer_count()) {
                first_failure = single.failure;
                first_failing = i;
            }
        }
        // Violations add up in layer order, as the full search sums them.
        EXPECT_EQ(full.violation_j, violation_j);
        EXPECT_EQ(full.feasible, first_failing == model.layer_count());
        EXPECT_EQ(full.failure.code, first_failure.code);
        if (first_failing < model.layer_count()) {
            saw_violation = true;
            EXPECT_EQ(full.failure.detail.rfind(
                          "layer " + std::to_string(first_failing) + ":",
                          0),
                      0u)
                << full.failure.detail;
        }
    }
    EXPECT_TRUE(saw_violation);
}

TEST_P(RepeatedShapeTest, EvaluationsCountEachDistinctShapeOnce)
{
    const auto model = dnn::make_resnet18();
    const auto accel = accelerator(GetParam());
    const MappingSearchOptions options;
    const std::vector<sim::EnergyEnv> envs = {make_env(40e-3, 1e-3)};
    std::int64_t distinct_evaluations = 0;
    std::int64_t all_evaluations = 0;
    std::vector<const dnn::Layer*> distinct;
    for (const auto& layer : model.layers()) {
        const auto single = search_mappings(
            single_layer_model(model, layer), accel, envs, options);
        all_evaluations += single.evaluations;
        bool repeated = false;
        for (const dnn::Layer* seen : distinct)
            repeated = repeated || same_shape(*seen, layer);
        if (!repeated) {
            distinct.push_back(&layer);
            distinct_evaluations += single.evaluations;
        }
    }
    ASSERT_LT(distinct.size(), model.layer_count());  // shapes repeat
    const auto full = search_mappings(model, accel, envs, options);
    EXPECT_EQ(full.evaluations, distinct_evaluations);
    EXPECT_LT(full.evaluations, all_evaluations);
}

INSTANTIATE_TEST_SUITE_P(Archs, RepeatedShapeTest,
                         ::testing::Values(hw::AcceleratorArch::kEyeriss,
                                           hw::AcceleratorArch::kTpu));

TEST(MappingSearchTest, InputGeometryIsPartOfTheShape)
{
    // Same kind and loop extents (8x8 output, 3x3 kernel), different
    // stride and input size: the input traffic differs, so the second
    // layer must get its own search.
    dnn::Model model("geometry", {64, 16, 16});
    model.add_layer(dnn::make_conv2d("stride1", 64, 64, 8, 8, 3, 1, 1));
    model.add_layer(dnn::make_conv2d("stride2", 64, 64, 16, 16, 3, 2, 1));
    ASSERT_TRUE(model.layer(0).dims == model.layer(1).dims);
    const hw::Msp430Lea mcu;
    const std::vector<sim::EnergyEnv> envs = {make_env(16e-3)};
    const MappingSearchOptions options;
    const auto full = search_mappings(model, mcu, envs, options);
    std::int64_t evaluations = 0;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const auto single = search_mappings(
            single_layer_model(model, model.layer(i)), mcu, envs, options);
        evaluations += single.evaluations;
        expect_same_cost(full.cost.layers[i], single.cost.layers[0],
                         model.layer(i).name);
    }
    EXPECT_EQ(full.evaluations, evaluations);
}

TEST(MappingSearchTest, GeneticStrategySearchesEveryLayer)
{
    // One Rng stream feeds every layer, so repeated shapes are searched
    // again: the count is per layer, not per distinct shape.
    const auto model = dnn::make_resnet18();
    hw::ReconfigurableAccelerator::Config config;
    const hw::ReconfigurableAccelerator accel(config);
    MappingSearchOptions options;
    options.strategy = MappingSearchOptions::Strategy::kGenetic;
    options.ga_population = 6;
    options.ga_generations = 3;
    const auto result =
        search_mappings(model, accel, {make_env(40e-3, 1e-3)}, options);
    const std::int64_t per_layer = 6 + 2 * (6 - 6 / 2);
    EXPECT_EQ(result.evaluations,
              per_layer * static_cast<std::int64_t>(model.layer_count()));
}

TEST(MappingSearchTest, LeakageInAnyEnvironmentMakesSearchInfeasible)
{
    const auto model = dnn::make_cifar10_cnn();
    const hw::Msp430Lea mcu;
    const sim::EnergyEnv bright = make_env(40e-3, 100e-6);
    const sim::EnergyEnv leaky = make_env(0.05e-3, 10e-3);
    ASSERT_GT(sim::effective_power(bright), 0.0);
    ASSERT_LE(sim::effective_power(leaky), 0.0);
    ASSERT_TRUE(
        search_mappings(model, mcu, {bright}, MappingSearchOptions{})
            .feasible);
    const auto result = search_mappings(model, mcu, {bright, leaky},
                                        MappingSearchOptions{});
    EXPECT_FALSE(result.feasible);
    EXPECT_GT(result.violation_j, 0.0);
    EXPECT_EQ(result.failure.code, fault::FailureCode::kTileExceedsCycle);
}

TEST(MappingSearchDeathTest, EmptyEnvironmentsAreFatal)
{
    const auto model = dnn::make_kws_mlp();
    const hw::Msp430Lea mcu;
    EXPECT_EXIT(
        search_mappings(model, mcu, {}, MappingSearchOptions{}),
        ::testing::ExitedWithCode(1), "environment");
}

}  // namespace
}  // namespace chrysalis::search
