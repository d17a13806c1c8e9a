/// \file
/// Energy-harvester models (Eq. 1 of the paper).
///
/// The harvester converts an ambient power density into electrical input
/// power: for a solar panel, P_eh = A_eh * k_eh (Eq. 1). The interface is
/// deliberately minimal so other harvesters (thermoelectric, RF) can be
/// swapped in, matching the paper's "component extensions for other energy
/// harvesters" (§III-D); SolarPanel is the only in-tree implementation.

#ifndef CHRYSALIS_ENERGY_HARVESTER_HPP
#define CHRYSALIS_ENERGY_HARVESTER_HPP

#include <memory>
#include <string>

#include "energy/solar_environment.hpp"

namespace chrysalis::energy {

/// Interface: converts the ambient environment into input power.
class EnergyHarvester
{
  public:
    virtual ~EnergyHarvester() = default;

    /// Electrical power produced at time \p t_s [W].
    virtual double power(double t_s) const = 0;

    /// Device footprint [cm^2] — the dominant SWaP size term (§III-B3).
    virtual double area_cm2() const = 0;

    /// Human-readable name for reports.
    virtual std::string name() const = 0;

    /// Deep copy.
    virtual std::unique_ptr<EnergyHarvester> clone() const = 0;
};

/// Photovoltaic panel: P_eh = A_eh * k_eh(t) (Eq. 1).
class SolarPanel final : public EnergyHarvester
{
  public:
    /// \param area_cm2 panel area [cm^2]; must be > 0.
    /// \param environment ambient-light model; must not be null.
    SolarPanel(double area_cm2,
               std::shared_ptr<const SolarEnvironment> environment);

    double power(double t_s) const override;
    double area_cm2() const override { return area_cm2_; }
    std::string name() const override;
    std::unique_ptr<EnergyHarvester> clone() const override;

    const SolarEnvironment& environment() const { return *environment_; }

  private:
    double area_cm2_;
    std::shared_ptr<const SolarEnvironment> environment_;
};

}  // namespace chrysalis::energy

#endif  // CHRYSALIS_ENERGY_HARVESTER_HPP
