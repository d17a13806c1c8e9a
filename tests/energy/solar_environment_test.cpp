/// \file
/// Tests for the solar-environment models (constant / diurnal).

#include "energy/solar_environment.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"

namespace chrysalis::energy {
namespace {

using chrysalis::units::kHour;

TEST(ConstantEnvTest, ReturnsConstant)
{
    ConstantSolarEnvironment env(1.5e-3, "test");
    EXPECT_DOUBLE_EQ(env.k_eh(0.0), 1.5e-3);
    EXPECT_DOUBLE_EQ(env.k_eh(1e6), 1.5e-3);
    EXPECT_EQ(env.name(), "test");
}

TEST(ConstantEnvTest, PresetsAreOrdered)
{
    EXPECT_GT(ConstantSolarEnvironment::brighter().k_eh(0.0),
              ConstantSolarEnvironment::darker().k_eh(0.0));
}

TEST(ConstantEnvTest, CloneIsIndependentCopy)
{
    ConstantSolarEnvironment env(2e-3, "orig");
    auto copy = env.clone();
    EXPECT_DOUBLE_EQ(copy->k_eh(0.0), 2e-3);
    EXPECT_EQ(copy->name(), "orig");
}

TEST(ConstantEnvDeathTest, RejectsNegative)
{
    EXPECT_EXIT(ConstantSolarEnvironment(-1.0, "bad"),
                ::testing::ExitedWithCode(1), "k_eh");
}

class DiurnalEnvTest : public ::testing::Test
{
  protected:
    DiurnalSolarEnvironment::Config config_;
};

TEST_F(DiurnalEnvTest, DarkAtNight)
{
    DiurnalSolarEnvironment env(config_);
    EXPECT_DOUBLE_EQ(env.k_eh(0.0), 0.0);           // midnight
    EXPECT_DOUBLE_EQ(env.k_eh(5.9 * kHour), 0.0);   // pre-dawn
    EXPECT_DOUBLE_EQ(env.k_eh(23.0 * kHour), 0.0);  // late evening
}

TEST_F(DiurnalEnvTest, PeaksAtNoon)
{
    DiurnalSolarEnvironment env(config_);
    EXPECT_NEAR(env.k_eh(12.0 * kHour), config_.peak_k_eh, 1e-9);
    EXPECT_LT(env.k_eh(8.0 * kHour), env.k_eh(12.0 * kHour));
    EXPECT_LT(env.k_eh(16.0 * kHour), env.k_eh(12.0 * kHour));
}

TEST_F(DiurnalEnvTest, SymmetricAboutNoon)
{
    DiurnalSolarEnvironment env(config_);
    EXPECT_NEAR(env.k_eh(10.0 * kHour), env.k_eh(14.0 * kHour), 1e-12);
}

TEST_F(DiurnalEnvTest, RepeatsDaily)
{
    DiurnalSolarEnvironment env(config_);
    constexpr double kDay = 24.0 * kHour;
    EXPECT_NEAR(env.k_eh(10.0 * kHour), env.k_eh(10.0 * kHour + kDay),
                1e-12);
    EXPECT_NEAR(env.k_eh(10.0 * kHour), env.k_eh(10.0 * kHour - kDay),
                1e-12);
}

TEST_F(DiurnalEnvTest, CloudsOnlyAttenuate)
{
    DiurnalSolarEnvironment clear(config_);
    config_.cloud_depth = 0.6;
    DiurnalSolarEnvironment cloudy(config_);
    for (double h = 6.5; h < 18.0; h += 0.37) {
        const double t = h * kHour;
        EXPECT_LE(cloudy.k_eh(t), clear.k_eh(t) + 1e-15) << "hour " << h;
        EXPECT_GE(cloudy.k_eh(t),
                  clear.k_eh(t) * (1.0 - config_.cloud_depth) - 1e-15);
    }
}

TEST_F(DiurnalEnvTest, CloudSignalIsDeterministic)
{
    config_.cloud_depth = 0.5;
    DiurnalSolarEnvironment a(config_);
    DiurnalSolarEnvironment b(config_);
    for (double h = 7.0; h < 17.0; h += 1.1)
        EXPECT_DOUBLE_EQ(a.k_eh(h * kHour), b.k_eh(h * kHour));
}

TEST_F(DiurnalEnvTest, DifferentSeedsGiveDifferentClouds)
{
    config_.cloud_depth = 0.9;
    DiurnalSolarEnvironment a(config_);
    config_.seed = 999;
    DiurnalSolarEnvironment b(config_);
    int differing = 0;
    for (double h = 7.0; h < 17.0; h += 0.13) {
        if (a.k_eh(h * kHour) != b.k_eh(h * kHour))
            ++differing;
    }
    EXPECT_GT(differing, 10);
}

TEST_F(DiurnalEnvTest, RejectsInvalidConfig)
{
    config_.sunset_s = config_.sunrise_s;
    EXPECT_EXIT(DiurnalSolarEnvironment{config_},
                ::testing::ExitedWithCode(1), "sunset");
}

}  // namespace
}  // namespace chrysalis::energy
