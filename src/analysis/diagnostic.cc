#include "src/analysis/diagnostic.h"

#include <algorithm>
#include <utility>

namespace tdx {

std::string_view SeverityName(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "note";
}

void AnalysisReport::Add(std::string id, Severity severity,
                         std::string message, SourceSpan span,
                         std::string hint) {
  diagnostics.push_back(Diagnostic{std::move(id), severity, std::move(message),
                                   span, std::move(hint)});
}

std::size_t AnalysisReport::CountOf(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

void AnalysisReport::PromoteWarnings() {
  for (Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kWarning) d.severity = Severity::kError;
  }
}

void AnalysisReport::Sort() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.span.line != b.span.line) {
                       return a.span.line < b.span.line;
                     }
                     if (a.span.column != b.span.column) {
                       return a.span.column < b.span.column;
                     }
                     if (a.id != b.id) return a.id < b.id;
                     return a.message < b.message;
                   });
}

std::string RenderDiagnostic(const Diagnostic& d, std::string_view file) {
  std::string out(file);
  if (d.span.valid()) {
    out += ':' + std::to_string(d.span.line) + ':' +
           std::to_string(d.span.column);
  }
  out += ": ";
  out += SeverityName(d.severity);
  out += ": " + d.message + " [" + d.id + "]\n";
  if (!d.hint.empty()) out += "    hint: " + d.hint + "\n";
  return out;
}

std::string RenderText(const AnalysisReport& report, std::string_view file) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += RenderDiagnostic(d, file);
  }
  out += file;
  out += ": " + std::to_string(report.CountOf(Severity::kError)) +
         " error(s), " + std::to_string(report.CountOf(Severity::kWarning)) +
         " warning(s), " + std::to_string(report.CountOf(Severity::kNote)) +
         " note(s)\n";
  out += file;
  out += ": termination: " + report.certificate.ToString() + "\n";
  return out;
}

obs::Json RenderJson(const AnalysisReport& report, std::string_view file) {
  using obs::Json;
  Json diagnostics = Json::Array();
  for (const Diagnostic& d : report.diagnostics) {
    Json object = Json::Object();
    object.Set("id", Json::Str(d.id));
    object.Set("severity", Json::Str(std::string(SeverityName(d.severity))));
    object.Set("line", Json::Uint(d.span.line));
    object.Set("column", Json::Uint(d.span.column));
    object.Set("message", Json::Str(d.message));
    if (!d.hint.empty()) object.Set("hint", Json::Str(d.hint));
    diagnostics.Append(std::move(object));
  }
  const TerminationCertificate& cert = report.certificate;
  Json certificate = Json::Object();
  certificate.Set("criterion", Json::Str(std::string(
                                   TerminationCriterionName(cert.criterion))));
  certificate.Set("guarantees_termination",
                  Json::Bool(cert.guarantees_termination()));
  if (!cert.witness.empty()) {
    certificate.Set("witness", Json::Str(cert.witness));
  }
  Json out = Json::Object();
  out.Set("file", Json::Str(std::string(file)));
  out.Set("diagnostics", std::move(diagnostics));
  out.Set("certificate", std::move(certificate));
  out.Set("errors", Json::Uint(report.CountOf(Severity::kError)));
  out.Set("warnings", Json::Uint(report.CountOf(Severity::kWarning)));
  out.Set("notes", Json::Uint(report.CountOf(Severity::kNote)));
  return out;
}

}  // namespace tdx
