/// \file
/// Tests for harvester models (Eq. 1: P_eh = A_eh * k_eh).

#include "energy/harvester.hpp"

#include <gtest/gtest.h>

namespace chrysalis::energy {
namespace {

std::shared_ptr<const SolarEnvironment>
constant_env(double k_eh)
{
    return std::make_shared<ConstantSolarEnvironment>(k_eh, "const");
}

TEST(SolarPanelTest, PowerIsAreaTimesCoefficient)
{
    SolarPanel panel(8.0, constant_env(2e-3));
    EXPECT_DOUBLE_EQ(panel.power(0.0), 16e-3);  // Eq. 1
    EXPECT_DOUBLE_EQ(panel.area_cm2(), 8.0);
}

class SolarPanelScalingTest : public ::testing::TestWithParam<double>
{
};

TEST_P(SolarPanelScalingTest, PowerScalesLinearlyWithArea)
{
    const double area = GetParam();
    SolarPanel unit(1.0, constant_env(1.7e-3));
    SolarPanel panel(area, constant_env(1.7e-3));
    EXPECT_NEAR(panel.power(0.0), area * unit.power(0.0), 1e-15);
}

INSTANTIATE_TEST_SUITE_P(TableIvRange, SolarPanelScalingTest,
                         ::testing::Values(1.0, 2.5, 8.0, 15.0, 30.0));

TEST(SolarPanelTest, TracksEnvironmentOverTime)
{
    DiurnalSolarEnvironment::Config config;
    config.peak_k_eh = 2e-3;
    auto env = std::make_shared<DiurnalSolarEnvironment>(config);
    SolarPanel panel(5.0, env);
    const double night_s = 0.0;
    const double noon_s = 12 * 3600.0;
    const double morning_s = 9 * 3600.0;
    EXPECT_DOUBLE_EQ(panel.power(night_s), 0.0);
    EXPECT_DOUBLE_EQ(panel.power(noon_s), 5.0 * env->k_eh(noon_s));
    EXPECT_DOUBLE_EQ(panel.power(morning_s), 5.0 * env->k_eh(morning_s));
    EXPECT_LT(panel.power(morning_s), panel.power(noon_s));
}

TEST(SolarPanelTest, CloneIsDeepEnough)
{
    auto panel = std::make_unique<SolarPanel>(3.0, constant_env(1e-3));
    auto copy = panel->clone();
    panel.reset();
    EXPECT_DOUBLE_EQ(copy->power(0.0), 3e-3);
    EXPECT_DOUBLE_EQ(copy->area_cm2(), 3.0);
}

TEST(SolarPanelTest, NameMentionsEnvironment)
{
    SolarPanel panel(1.0, constant_env(1e-3));
    EXPECT_NE(panel.name().find("solar-panel"), std::string::npos);
    EXPECT_NE(panel.name().find("const"), std::string::npos);
}

TEST(SolarPanelDeathTest, RejectsNonPositiveArea)
{
    EXPECT_EXIT(SolarPanel(0.0, constant_env(1e-3)),
                ::testing::ExitedWithCode(1), "area");
    EXPECT_EXIT(SolarPanel(-2.0, constant_env(1e-3)),
                ::testing::ExitedWithCode(1), "area");
}

TEST(SolarPanelDeathTest, RejectsNullEnvironment)
{
    EXPECT_EXIT(SolarPanel(1.0, nullptr), ::testing::ExitedWithCode(1),
                "environment");
}

}  // namespace
}  // namespace chrysalis::energy
