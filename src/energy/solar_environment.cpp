#include "energy/solar_environment.hpp"

#include <cmath>
#include <numbers>

#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"

namespace chrysalis::energy {

// --- ConstantSolarEnvironment --------------------------------------------

ConstantSolarEnvironment::ConstantSolarEnvironment(double k_eh_w_per_cm2,
                                                   std::string label)
    : k_eh_(k_eh_w_per_cm2), label_(std::move(label))
{
    if (k_eh_ < 0.0)
        fatal("ConstantSolarEnvironment: k_eh must be >= 0, got ", k_eh_);
}

double
ConstantSolarEnvironment::k_eh(double) const
{
    return k_eh_;
}

std::unique_ptr<SolarEnvironment>
ConstantSolarEnvironment::clone() const
{
    return std::make_unique<ConstantSolarEnvironment>(*this);
}

ConstantSolarEnvironment
ConstantSolarEnvironment::brighter()
{
    return ConstantSolarEnvironment(2.0e-3, "brighter");
}

ConstantSolarEnvironment
ConstantSolarEnvironment::darker()
{
    return ConstantSolarEnvironment(0.5e-3, "darker");
}

// --- DiurnalSolarEnvironment ----------------------------------------------

DiurnalSolarEnvironment::DiurnalSolarEnvironment(const Config& config)
    : config_(config)
{
    if (config_.peak_k_eh < 0.0)
        fatal("DiurnalSolarEnvironment: peak_k_eh must be >= 0");
    if (config_.sunset_s <= config_.sunrise_s)
        fatal("DiurnalSolarEnvironment: sunset must be after sunrise");
    if (config_.cloud_depth < 0.0 || config_.cloud_depth > 1.0)
        fatal("DiurnalSolarEnvironment: cloud_depth must lie in [0, 1]");
    if (config_.cloud_period_s <= 0.0)
        fatal("DiurnalSolarEnvironment: cloud_period_s must be > 0");
}

double
DiurnalSolarEnvironment::k_eh(double t_s) const
{
    constexpr double kDay = 24.0 * 3600.0;
    double tod = std::fmod(t_s, kDay);
    if (tod < 0.0)
        tod += kDay;
    if (tod <= config_.sunrise_s || tod >= config_.sunset_s)
        return 0.0;
    // Solar elevation approximated by a half-sine arc across daylight.
    const double day_len = config_.sunset_s - config_.sunrise_s;
    const double phase = (tod - config_.sunrise_s) / day_len;
    const double elevation = std::sin(std::numbers::pi * phase);
    return config_.peak_k_eh * elevation * cloud_factor(t_s);
}

double
DiurnalSolarEnvironment::cloud_factor(double t_s) const
{
    if (config_.cloud_depth <= 0.0)
        return 1.0;
    // Deterministic value noise: hash integer cloud-cells to [0,1] levels
    // and blend between neighbours with a smoothstep, giving a continuous
    // occlusion signal with the configured characteristic period.
    const double cell = t_s / config_.cloud_period_s;
    const auto cell_lo = static_cast<std::int64_t>(std::floor(cell));
    const auto level_at = [this](std::int64_t index) {
        Rng rng(config_.seed ^ (0x9e3779b97f4a7c15ULL *
                                static_cast<std::uint64_t>(index + 1)));
        return rng.uniform();
    };
    const double t = cell - static_cast<double>(cell_lo);
    const double smooth = t * t * (3.0 - 2.0 * t);
    const double occlusion =
        lerp(level_at(cell_lo), level_at(cell_lo + 1), smooth);
    return 1.0 - config_.cloud_depth * occlusion;
}

std::unique_ptr<SolarEnvironment>
DiurnalSolarEnvironment::clone() const
{
    return std::make_unique<DiurnalSolarEnvironment>(*this);
}

// --- MarkovWeatherEnvironment ----------------------------------------------

MarkovWeatherEnvironment::MarkovWeatherEnvironment(const Config& config)
    : config_(config), base_(config.diurnal)
{
    if (config_.slot_s <= 0.0)
        fatal("MarkovWeatherEnvironment: slot_s must be > 0");
    for (double factor : {config_.sunny_factor, config_.cloudy_factor,
                          config_.overcast_factor}) {
        if (factor < 0.0 || factor > 1.0)
            fatal("MarkovWeatherEnvironment: attenuation factors must "
                  "lie in [0, 1]");
    }
    for (int from = 0; from < 3; ++from) {
        double row_sum = 0.0;
        for (int to = 0; to < 3; ++to) {
            if (config_.transition[from][to] < 0.0)
                fatal("MarkovWeatherEnvironment: negative transition "
                      "probability");
            row_sum += config_.transition[from][to];
        }
        if (std::fabs(row_sum - 1.0) > 1e-9)
            fatal("MarkovWeatherEnvironment: transition row ", from,
                  " sums to ", row_sum, ", expected 1");
    }
}

MarkovWeatherEnvironment::Weather
MarkovWeatherEnvironment::weather_at(double t_s) const
{
    // Slots index absolute time, so the state sequence is globally
    // consistent and deterministic for a given seed. The sequence is
    // memoized (the simulator queries k_eh every step).
    const auto slot = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::floor(t_s / config_.slot_s)));
    if (state_cache_.empty())
        state_cache_.push_back(0);  // slot 0 starts sunny
    while (static_cast<std::int64_t>(state_cache_.size()) <= slot) {
        const auto s =
            static_cast<std::int64_t>(state_cache_.size()) - 1;
        Rng rng(config_.seed ^
                (0x9e3779b97f4a7c15ULL *
                 static_cast<std::uint64_t>(s + 1)));
        const double u = rng.uniform();
        int state = state_cache_.back();
        double cumulative = 0.0;
        for (int to = 0; to < 3; ++to) {
            cumulative += config_.transition[state][to];
            if (u < cumulative) {
                state = to;
                break;
            }
        }
        state_cache_.push_back(state);
    }
    return static_cast<Weather>(
        state_cache_[static_cast<std::size_t>(slot)]);
}

double
MarkovWeatherEnvironment::k_eh(double t_s) const
{
    double factor = config_.sunny_factor;
    switch (weather_at(t_s)) {
      case Weather::kSunny: factor = config_.sunny_factor; break;
      case Weather::kCloudy: factor = config_.cloudy_factor; break;
      case Weather::kOvercast: factor = config_.overcast_factor; break;
    }
    return base_.k_eh(t_s) * factor;
}

std::unique_ptr<SolarEnvironment>
MarkovWeatherEnvironment::clone() const
{
    return std::make_unique<MarkovWeatherEnvironment>(*this);
}

}  // namespace chrysalis::energy
