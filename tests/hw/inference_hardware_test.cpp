/// \file
/// Tests for the InferenceHardware substitution hook (§III-D): hardware
/// defined outside the library runs through the mapping search.

#include "hw/inference_hardware.hpp"

#include <gtest/gtest.h>

#include "dnn/model_zoo.hpp"
#include "search/mapping_search.hpp"

namespace chrysalis::hw {
namespace {

/// User-defined hardware: a fixed CostParams set and dataflow list.
class CustomHardware final : public InferenceHardware
{
  public:
    CustomHardware(std::string name, dataflow::CostParams params,
                   std::vector<dataflow::Dataflow> dataflows)
        : name_(std::move(name)), params_(params),
          dataflows_(std::move(dataflows))
    {
    }

    std::string name() const override { return name_; }
    dataflow::CostParams cost_params() const override { return params_; }
    std::vector<dataflow::Dataflow> supported_dataflows() const override
    {
        return dataflows_;
    }
    std::unique_ptr<InferenceHardware> clone() const override
    {
        return std::make_unique<CustomHardware>(*this);
    }

  private:
    std::string name_;
    dataflow::CostParams params_;
    std::vector<dataflow::Dataflow> dataflows_;
};

dataflow::CostParams
crossbar_params()
{
    // A ReRAM-crossbar-flavoured accelerator (ResiRCA-style): extremely
    // cheap MACs, modest throughput, expensive writes.
    dataflow::CostParams params;
    params.e_mac_j = 0.5e-12;
    params.macs_per_s_per_pe = 5e7;
    params.n_pe = 32;
    params.vm_bytes_per_pe = 256;
    params.e_vm_byte_j = 2e-12;
    params.e_nvm_read_byte_j = 50e-12;
    params.e_nvm_write_byte_j = 500e-12;
    params.nvm_bytes_per_s = 2e8;
    params.element_bytes = 1;
    return params;
}

TEST(CustomHardwareTest, WorksWithTheMappingSearch)
{
    const CustomHardware hardware(
        "reram-crossbar", crossbar_params(),
        {dataflow::Dataflow::kWeightStationary,
         dataflow::Dataflow::kOutputStationary});
    const auto model = dnn::make_kws_mlp();
    sim::EnergyEnv env;
    env.p_eh_w = 10e-3;
    const auto result = search::search_mappings(
        model, hardware, {env}, search::MappingSearchOptions{});
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.mappings.size(), model.layer_count());
}

}  // namespace
}  // namespace chrysalis::hw
