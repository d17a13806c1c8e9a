#include "core/campaign_spec.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/string_utils.hpp"

namespace chrysalis::core {

namespace {

/// Probability knobs must be finite and within [0, 1].
void
check_probability(const char* name, double value)
{
    if (!(value >= 0.0 && value <= 1.0) || !std::isfinite(value))
        fatal("CampaignSpec: ", name, " must be in [0, 1], got ", value);
}

}  // namespace

void
CampaignSpec::validate() const
{
    if (model.empty())
        fatal("CampaignSpec: model must not be empty");
    const std::string space_key = to_lower(space);
    if (space_key != "existing" && space_key != "future")
        fatal("CampaignSpec: space must be 'existing' or 'future', got '",
              space, "'");
    if (cases < 1)
        fatal("CampaignSpec: cases must be >= 1, got ", cases);
    if (!(sp_limit_cm2 > 0.0) || !std::isfinite(sp_limit_cm2))
        fatal("CampaignSpec: sp_limit_cm2 must be finite and > 0, got ",
              sp_limit_cm2);
    if (!(lat_limit_s > 0.0) || !std::isfinite(lat_limit_s))
        fatal("CampaignSpec: lat_limit_s must be finite and > 0, got ",
              lat_limit_s);
    if (population < 1)
        fatal("CampaignSpec: population must be >= 1, got ", population);
    if (generations < 1)
        fatal("CampaignSpec: generations must be >= 1, got ", generations);
    if (!(bright_w_cm2 > 0.0) || !std::isfinite(bright_w_cm2))
        fatal("CampaignSpec: bright_w_cm2 must be finite and > 0, got ",
              bright_w_cm2);
    if (!(dark_w_cm2 > 0.0) || !std::isfinite(dark_w_cm2))
        fatal("CampaignSpec: dark_w_cm2 must be finite and > 0, got ",
              dark_w_cm2);
    check_probability("fault_dropout", fault_dropout);
    check_probability("fault_ckpt", fault_ckpt);
    if (!(fault_age_years >= 0.0) || !std::isfinite(fault_age_years))
        fatal("CampaignSpec: fault_age_years must be finite and >= 0, "
              "got ", fault_age_years);
    if (max_attempts < 1)
        fatal("CampaignSpec: max_attempts must be >= 1, got ",
              max_attempts);
}

const char*
campaign_case_kind(std::size_t index)
{
    static const char* const kKinds[] = {"latsp", "lat", "sp"};
    return kKinds[index % 3];
}

std::string
campaign_case_label(const std::string& model_name, std::size_t index)
{
    return model_name + "-" + campaign_case_kind(index) + "-" +
           std::to_string(index);
}

CampaignCase
build_campaign_case(const CampaignSpec& spec, const dnn::Model& model,
                    std::size_t index)
{
    const std::string kind = campaign_case_kind(index);
    search::Objective objective;
    if (kind == "lat") {
        objective = {search::ObjectiveKind::kLatency, spec.sp_limit_cm2,
                     0.0};
    } else if (kind == "sp") {
        objective = {search::ObjectiveKind::kSolarPanel, 0.0,
                     spec.lat_limit_s};
    } else {
        objective = {search::ObjectiveKind::kLatSp, 0.0, 0.0};
    }
    return {campaign_case_label(model.name(), index), model,
            to_lower(spec.space) == "future"
                ? search::DesignSpace::future_aut()
                : search::DesignSpace::existing_aut(),
            objective};
}

std::vector<CampaignCase>
build_campaign_cases(const CampaignSpec& spec, const dnn::Model& model)
{
    spec.validate();
    std::vector<CampaignCase> cases;
    cases.reserve(static_cast<std::size_t>(spec.cases));
    for (int i = 0; i < spec.cases; ++i)
        cases.push_back(
            build_campaign_case(spec, model, static_cast<std::size_t>(i)));
    return cases;
}

search::ExplorerOptions
build_explorer_options(const CampaignSpec& spec,
                       std::unique_ptr<fault::FaultInjector>& faults)
{
    spec.validate();
    search::ExplorerOptions options;
    options.outer.population = spec.population;
    options.outer.generations = spec.generations;
    options.outer.seed = spec.seed;
    options.k_eh_envs = {spec.bright_w_cm2, spec.dark_w_cm2};
    faults.reset();
    if (spec.fault_dropout > 0.0 || spec.fault_age_years > 0.0 ||
        spec.fault_ckpt > 0.0) {
        fault::FaultSpec fault_spec;
        fault_spec.seed = spec.seed;
        fault_spec.dropout_probability = spec.fault_dropout;
        fault_spec.mission_age_years = spec.fault_age_years;
        fault_spec.ckpt_corruption_rate = spec.fault_ckpt;
        faults = std::make_unique<fault::FaultInjector>(fault_spec);
    }
    options.faults = faults.get();
    return options;
}

FlatJsonFields
to_fields(const CampaignSpec& spec)
{
    FlatJsonFields fields;
    fields["model"] = spec.model;
    fields["space"] = spec.space;
    fields["cases"] = std::to_string(spec.cases);
    fields["sp_limit"] = format_double_17g(spec.sp_limit_cm2);
    fields["lat_limit"] = format_double_17g(spec.lat_limit_s);
    fields["population"] = std::to_string(spec.population);
    fields["generations"] = std::to_string(spec.generations);
    fields["seed"] = std::to_string(spec.seed);
    fields["bright"] = format_double_17g(spec.bright_w_cm2);
    fields["dark"] = format_double_17g(spec.dark_w_cm2);
    fields["fault_dropout"] = format_double_17g(spec.fault_dropout);
    fields["fault_age"] = format_double_17g(spec.fault_age_years);
    fields["fault_ckpt"] = format_double_17g(spec.fault_ckpt);
    fields["max_attempts"] = std::to_string(spec.max_attempts);
    return fields;
}

FlatJsonFields
case_request_fields(const CampaignSpec& spec, std::size_t index)
{
    FlatJsonFields fields = to_fields(spec);
    fields["case_index"] = std::to_string(index);
    return fields;
}

namespace {

/// Absent fields keep the spec default; present-but-unparsable fields
/// fatal() — the serve dispatch layer turns that into `bad_request`.
void
take_double(const FlatJsonFields& fields, const char* name, double& out)
{
    if (fields.find(name) == fields.end())
        return;
    if (!json_get_double(fields, name, out))
        fatal("campaign spec: field '", name, "' is not a number");
}

void
take_int(const FlatJsonFields& fields, const char* name, int& out)
{
    if (fields.find(name) == fields.end())
        return;
    if (!json_get_int(fields, name, out))
        fatal("campaign spec: field '", name, "' is not an integer");
}

void
take_uint64(const FlatJsonFields& fields, const char* name,
            std::uint64_t& out)
{
    if (fields.find(name) == fields.end())
        return;
    if (!json_get_uint64(fields, name, out))
        fatal("campaign spec: field '", name,
              "' is not an unsigned integer");
}

}  // namespace

CampaignSpec
spec_from_fields(const FlatJsonFields& fields)
{
    CampaignSpec spec;
    json_get_string(fields, "model", spec.model);
    json_get_string(fields, "space", spec.space);
    take_int(fields, "cases", spec.cases);
    take_double(fields, "sp_limit", spec.sp_limit_cm2);
    take_double(fields, "lat_limit", spec.lat_limit_s);
    take_int(fields, "population", spec.population);
    take_int(fields, "generations", spec.generations);
    take_uint64(fields, "seed", spec.seed);
    take_double(fields, "bright", spec.bright_w_cm2);
    take_double(fields, "dark", spec.dark_w_cm2);
    take_double(fields, "fault_dropout", spec.fault_dropout);
    take_double(fields, "fault_age", spec.fault_age_years);
    take_double(fields, "fault_ckpt", spec.fault_ckpt);
    take_int(fields, "max_attempts", spec.max_attempts);
    spec.validate();
    return spec;
}

}  // namespace chrysalis::core
