/// \file
/// Tests for the energy-cycle state machine (Eq. 3 behaviour): charging,
/// turn-on, brown-out, direct-path supply and the cumulative ledger.

#include "energy/energy_controller.hpp"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

namespace chrysalis::energy {
namespace {

std::unique_ptr<EnergyHarvester>
make_panel(double area_cm2, double k_eh)
{
    return std::make_unique<SolarPanel>(
        area_cm2,
        std::make_shared<ConstantSolarEnvironment>(k_eh, "test"));
}

Capacitor::Config
cap_config(double c_f, double v0 = 0.0)
{
    Capacitor::Config config;
    config.capacitance_f = c_f;
    config.rated_voltage_v = 5.0;
    config.k_cap = 0.01;
    config.initial_voltage_v = v0;
    return config;
}

EnergyController
make_controller(double area_cm2, double k_eh, double c_f, double v0 = 0.0)
{
    return EnergyController(make_panel(area_cm2, k_eh),
                            Capacitor(cap_config(c_f, v0)),
                            PowerManagementIc{PowerManagementIc::Config{}});
}

TEST(EnergyControllerTest, StartsChargingWhenEmpty)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6);
    EXPECT_FALSE(controller.can_run());
}

TEST(EnergyControllerTest, StartsActiveWhenPreCharged)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6, 4.0);
    EXPECT_TRUE(controller.can_run());
}

TEST(EnergyControllerTest, ChargesToTurnOn)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6);
    double t = 0.0;
    int steps = 0;
    while (!controller.can_run() && steps < 10000) {
        controller.step(t, 0.01, 0.0);
        t += 0.01;
        ++steps;
    }
    EXPECT_TRUE(controller.can_run());
    EXPECT_EQ(controller.ledger().cycle_count, 1);
    // Charge time should be roughly E(U_on)/ (P_in * eta): 613 uJ at
    // 16 mW * 0.9 => ~43 ms.
    EXPECT_GT(t, 0.01);
    EXPECT_LT(t, 1.0);
}

/// A harvester defined outside the library, through the §III-D
/// extension interface.
class ConstantPowerHarvester final : public EnergyHarvester
{
  public:
    explicit ConstantPowerHarvester(double power_w) : power_w_(power_w) {}

    double power(double) const override { return power_w_; }
    double area_cm2() const override { return 4.0; }
    std::string name() const override { return "constant-power"; }
    std::unique_ptr<EnergyHarvester> clone() const override
    {
        return std::make_unique<ConstantPowerHarvester>(*this);
    }

  private:
    double power_w_;
};

TEST(EnergyControllerTest, ChargesFromAnyHarvester)
{
    // 16 mW from a user-defined source charges exactly like the
    // 8 cm^2 x 2 mW/cm^2 panel.
    EnergyController custom(std::make_unique<ConstantPowerHarvester>(16e-3),
                            Capacitor(cap_config(100e-6)),
                            PowerManagementIc{PowerManagementIc::Config{}});
    auto panel = make_controller(8.0, 2e-3, 100e-6);
    for (int i = 0; i < 20; ++i) {
        custom.step(i * 0.01, 0.01, 0.0);
        panel.step(i * 0.01, 0.01, 0.0);
    }
    EXPECT_EQ(custom.harvester().name(), "constant-power");
    EXPECT_GT(custom.voltage(), 0.0);
    EXPECT_DOUBLE_EQ(custom.voltage(), panel.voltage());
    EXPECT_EQ(custom.can_run(), panel.can_run());
}

TEST(EnergyControllerTest, DirectPathPowersLoadLargerThanCapacitor)
{
    // 1 uF capacitor stores ~12.5 uJ, but harvest (16 mW) exceeds the
    // 5 mW load: the PMIC direct path must sustain it indefinitely.
    auto controller = make_controller(8.0, 2e-3, 1e-6, 3.5);
    double delivered = 0.0;
    for (int i = 0; i < 100; ++i) {
        const auto result = controller.step(i * 0.01, 0.01, 5e-3);
        delivered += result.delivered_j;
        EXPECT_FALSE(result.browned_out) << "step " << i;
    }
    EXPECT_NEAR(delivered, 5e-3 * 1.0, 1e-4);
}

TEST(EnergyControllerTest, BrownsOutWhenLoadExceedsHarvestAndStorage)
{
    // Harvest 1.6 mW, load 50 mW: storage bridges briefly, then brown-out.
    auto controller = make_controller(0.8, 2e-3, 100e-6, 3.5);
    bool browned = false;
    for (int i = 0; i < 200 && !browned; ++i)
        browned = controller.step(i * 0.01, 0.01, 50e-3).browned_out;
    EXPECT_TRUE(browned);
    EXPECT_FALSE(controller.can_run());
}

TEST(EnergyControllerTest, RecoversAfterBrownOut)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6, 3.5);
    // Force brown-out with a huge load.
    for (int i = 0; i < 100 && controller.can_run(); ++i)
        controller.step(i * 0.01, 0.01, 1.0);
    ASSERT_FALSE(controller.can_run());
    // Charge back up.
    double t = 10.0;
    for (int i = 0; i < 10000 && !controller.can_run(); ++i) {
        controller.step(t, 0.01, 0.0);
        t += 0.01;
    }
    EXPECT_TRUE(controller.can_run());
    EXPECT_GE(controller.ledger().cycle_count, 1);
}

TEST(EnergyControllerTest, LedgerConservesEnergy)
{
    auto controller = make_controller(8.0, 2e-3, 470e-6);
    double t = 0.0;
    for (int i = 0; i < 2000; ++i) {
        controller.step(t, 0.01, i % 2 == 0 ? 3e-3 : 0.0);
        t += 0.01;
    }
    const auto& ledger = controller.ledger();
    // harvested = stored + wasted + (charger losses are inside wasted).
    EXPECT_GT(ledger.harvested_j, 0.0);
    EXPECT_GE(ledger.stored_j, 0.0);
    EXPECT_GE(ledger.wasted_j, 0.0);
    EXPECT_GE(ledger.leaked_j, 0.0);
    EXPECT_GE(ledger.delivered_j, 0.0);
    // Total accounted energy cannot exceed what was harvested.
    const double accounted = ledger.delivered_j + ledger.leaked_j +
                             ledger.quiescent_j + ledger.wasted_j;
    EXPECT_LT(accounted, ledger.harvested_j * 1.05);
}

TEST(EnergyControllerTest, LeakageScalesWithCapacitance)
{
    auto small = make_controller(8.0, 2e-3, 100e-6, 3.5);
    auto large = make_controller(8.0, 2e-3, 10e-3, 3.5);
    for (int i = 0; i < 100; ++i) {
        small.step(i * 0.01, 0.01, 0.0);
        large.step(i * 0.01, 0.01, 0.0);
    }
    EXPECT_GT(large.ledger().leaked_j, small.ledger().leaked_j);
}

TEST(EnergyControllerTest, FullCapacitorWastesHarvest)
{
    // Tiny capacitor at rated voltage with no load: everything harvested
    // beyond leakage replacement is wasted.
    auto controller = make_controller(30.0, 2e-3, 1e-6, 5.0);
    for (int i = 0; i < 100; ++i)
        controller.step(i * 0.01, 0.01, 0.0);
    EXPECT_GT(controller.ledger().wasted_j,
              0.5 * controller.ledger().harvested_j);
}

TEST(EnergyControllerTest, AvailableEnergyEq3Matches)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6, 3.5);
    // Eq. 3: 1/2 C (U_on^2 - U_off^2) + T (k_eh A_eh - k_cap C U_on^2)
    const double e_store = 0.5 * 100e-6 * (3.5 * 3.5 - 2.2 * 2.2);
    const double t_exec = 2.0;
    const double expected =
        e_store + t_exec * (8.0 * 2e-3 - 0.01 * 100e-6 * 3.5 * 3.5);
    EXPECT_NEAR(controller.available_energy_eq3(0.0, t_exec), expected,
                1e-12);
}

TEST(EnergyControllerTest, AvailableLoadEnergyRespectsUOff)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6, 3.5);
    const double usable_cap =
        0.5 * 100e-6 * (3.5 * 3.5 - 2.2 * 2.2);
    EXPECT_NEAR(controller.available_load_energy(), usable_cap * 0.85,
                1e-9);
}

TEST(EnergyControllerTest, ResetClearsState)
{
    auto controller = make_controller(8.0, 2e-3, 100e-6, 4.0);
    controller.step(0.0, 0.1, 1e-3);
    controller.reset();
    EXPECT_FALSE(controller.can_run());
    EXPECT_DOUBLE_EQ(controller.voltage(), 0.0);
    EXPECT_EQ(controller.ledger().cycle_count, 0);
    EXPECT_DOUBLE_EQ(controller.ledger().harvested_j, 0.0);
}

TEST(EnergyControllerTest, DrainToLowersVoltageAndChargesState)
{
    auto controller = make_controller(8.0, 2e-3, 470e-6, 4.5);
    ASSERT_TRUE(controller.can_run());
    const double leaked_before = controller.ledger().leaked_j;
    controller.drain_to(2.2);
    EXPECT_NEAR(controller.voltage(), 2.2, 1e-9);
    EXPECT_FALSE(controller.can_run());
    EXPECT_GT(controller.ledger().leaked_j, leaked_before);
}

TEST(EnergyControllerTest, DrainToIsNoOpWhenAlreadyLower)
{
    auto controller = make_controller(8.0, 2e-3, 470e-6, 1.0);
    controller.drain_to(2.2);
    EXPECT_NEAR(controller.voltage(), 1.0, 1e-9);
}

TEST(EnergyControllerDeathTest, DrainToRejectsBadVoltage)
{
    auto controller = make_controller(8.0, 2e-3, 470e-6, 1.0);
    EXPECT_EXIT(controller.drain_to(-1.0), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(controller.drain_to(99.0), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(EnergyControllerDeathTest, RejectsNullHarvester)
{
    EXPECT_EXIT(
        EnergyController(nullptr, Capacitor(cap_config(100e-6)),
                         PowerManagementIc{PowerManagementIc::Config{}}),
        ::testing::ExitedWithCode(1), "harvester");
}

TEST(EnergyControllerDeathTest, RejectsThresholdAboveRating)
{
    PowerManagementIc::Config pmic_config;
    pmic_config.v_on = 6.0;  // above the 5 V rated capacitor
    EXPECT_EXIT(
        EnergyController(make_panel(1.0, 1e-3),
                         Capacitor(cap_config(100e-6)),
                         PowerManagementIc{pmic_config}),
        ::testing::ExitedWithCode(1), "rated voltage");
}

TEST(EnergyControllerDeathTest, NegativeInputsPanic)
{
    auto controller = make_controller(1.0, 1e-3, 100e-6);
    EXPECT_DEATH(controller.step(0.0, -1.0, 0.0), "negative dt");
    EXPECT_DEATH(controller.step(0.0, 1.0, -1.0), "negative load");
}

}  // namespace
}  // namespace chrysalis::energy
