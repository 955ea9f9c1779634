#include "src/core/align.h"

#include "src/obs/trace.h"

namespace tdx {

namespace {

/// chase([[source]], mapping). The abstract source lives only while the
/// chase reads it; the comparison needs just the chase's target.
Result<AbstractChaseOutcome> ChaseAbstractSource(
    const ConcreteInstance& source, const Mapping& snapshot_mapping,
    Universe* universe, const ChaseOptions& options) {
  TDX_ASSIGN_OR_RETURN(AbstractInstance abstract_source,
                       AbstractInstance::FromConcrete(source));
  return AbstractChase(abstract_source, snapshot_mapping, universe, options);
}

}  // namespace

Result<AlignmentReport> VerifyAlignment(const ConcreteInstance& jc,
                                        const AbstractInstance& ja) {
  TDX_ASSIGN_OR_RETURN(AbstractInstance jc_sem,
                       AbstractInstance::FromConcrete(jc));
  AlignmentReport report;
  report.outcome_agreed = true;
  report.forward_checked = true;
  {
    TDX_TRACE_SPAN("align.forward");
    report.forward = AbstractHomomorphismExists(jc_sem, ja);
  }
  {
    TDX_TRACE_SPAN("align.backward");
    report.backward = AbstractHomomorphismExists(ja, jc_sem);
  }
  return report;
}

Result<AlignmentReport> CompareWithAbstractChase(
    const CChaseOutcome& concrete, const ConcreteInstance& source,
    const Mapping& snapshot_mapping, Universe* universe,
    const ChaseOptions& options) {
  AlignmentReport report;
  TDX_ASSIGN_OR_RETURN(
      AbstractChaseOutcome abstract,
      ChaseAbstractSource(source, snapshot_mapping, universe, options));
  if (abstract.kind == ChaseResultKind::kAborted) {
    report.abort_dimension = abstract.abort_dimension;
    report.abort_reason = std::move(abstract.abort_reason);
    return report;
  }

  report.outcome_agreed = (concrete.kind == abstract.kind);
  if (!report.outcome_agreed ||
      concrete.kind == ChaseResultKind::kFailure) {
    return report;  // nothing further to compare
  }
  return VerifyAlignment(concrete.target, abstract.target);
}

Result<AlignmentReport> VerifyCorollary20(const ConcreteInstance& source,
                                          const Mapping& snapshot_mapping,
                                          const Mapping& lifted_mapping,
                                          Universe* universe) {
  TDX_ASSIGN_OR_RETURN(CChaseOutcome concrete,
                       CChase(source, lifted_mapping, universe));
  return CompareWithAbstractChase(concrete, source, snapshot_mapping,
                                  universe);
}

}  // namespace tdx
