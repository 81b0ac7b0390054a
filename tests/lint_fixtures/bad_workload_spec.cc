// Fixture for the two WorkloadSpec rules. workload-spec-construction:
// constructing or owning WorkloadSpec values outside src/workload
// fires; references, pointers and registry lookups do not.
// workload-spec-mention (fixtures lint as src/): every code line that
// names WorkloadSpec fires, e.g. a spec-taking run overload.
#include <memory>
#include <vector>

#include "workload/registry.hh"
#include "workload/workload.hh"

void
bad_default_construction()
{
    boreas::WorkloadSpec spec; // fires
    (void)spec;
}

void
bad_braced_temporary()
{
    auto spec = boreas::WorkloadSpec{}; // fires
    (void)spec;
}

void
bad_heap_construction()
{
    auto spec = std::make_unique<boreas::WorkloadSpec>(); // fires
    (void)spec;
}

void
bad_owning_container()
{
    std::vector<boreas::WorkloadSpec> suite; // fires
    (void)suite;
}

void
fine_reference_and_pointer(const boreas::WorkloadSpec &spec)
{
    const boreas::WorkloadSpec *ptr = &spec;
    (void)ptr;
    std::vector<const boreas::WorkloadSpec *> views;
    (void)views;
}

void
fine_registry_lookup()
{
    auto source = boreas::makeWorkloadSource("synthetic:spec2006/astar");
    (void)source;
}

void
allowed_construction()
{
    // boreas-lint: allow(workload-spec-construction)
    boreas::WorkloadSpec exempted;
    (void)exempted;
}

void bad_spec_overload(const boreas::WorkloadSpec &spec); // fires

// boreas-lint: allow(workload-spec-mention)
void allowed_spec_overload(const boreas::WorkloadSpec &spec);

// WorkloadSpec spec; in a comment must not fire.
inline const char *mention = "WorkloadSpec quoted;";
