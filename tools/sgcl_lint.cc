// sgcl_lint: repo-invariant static analyzer (rules in common/lint.h,
// rationale in DESIGN.md §9).
//
//   sgcl_lint [--root=DIR] [--json=FILE] [--allowlist=FILE]
//             [--fail-on=warning|error|none] [--report-stale-nolint]
//
// Walks src/, tests/, tools/, bench/, and examples/ under --root
// (default "."), hands every .h/.cc/.cpp file to one lint::Linter, and
// prints its deterministic file-ordered text report and — when --json is
// given — the same findings as a JSON report (the CI artifact). The
// Linter analyzes files on the shared thread pool, sized by
// SGCL_NUM_THREADS like every other binary; the report is identical for
// every pool size. Exit status: 0 when no finding reaches the --fail-on
// severity, 1 when one does, 2 on usage or I/O errors.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/lint.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int Run(int argc, char** argv) {
  std::string root = ".";
  std::string json_out;
  std::string allowlist_path;
  std::string fail_on = "warning";
  bool report_stale = false;
  FlagSet flags("sgcl_lint");
  flags.String("root", &root, "repository root to lint");
  flags.String("json", &json_out, "write the findings as JSON to this file");
  flags.String("allowlist", &allowlist_path,
               "allowlist file (default: <root>/tools/sgcl_lint_allowlist.txt "
               "when present)");
  flags.String("fail-on", &fail_on,
               "minimum severity that fails the run: warning|error|none");
  flags.Bool("report-stale-nolint", &report_stale,
             "report NOLINT comments and allowlist entries that suppress "
             "nothing (rule sgcl-nolint)");
  const Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (fail_on != "warning" && fail_on != "error" && fail_on != "none") {
    std::fprintf(stderr, "error: --fail-on must be warning, error, or none "
                         "(got '%s')\n", fail_on.c_str());
    return 2;
  }

  lint::LintOptions options;
  if (allowlist_path.empty()) {
    const fs::path fallback = fs::path(root) / "tools/sgcl_lint_allowlist.txt";
    if (fs::exists(fallback)) allowlist_path = fallback.string();
  }
  if (!allowlist_path.empty()) {
    auto loaded = lint::LoadAllowlist(allowlist_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 2;
    }
    options = std::move(loaded).value();
  }
  options.report_stale_nolint = report_stale;

  lint::Linter linter(std::move(options));
  size_t files = 0;
  for (const char* top : {"src", "tests", "tools", "bench", "examples"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      auto content = ReadFile(entry.path());
      if (!content.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     content.status().ToString().c_str());
        return 2;
      }
      // Repo-relative forward-slash paths: the report and the allowlist
      // name files the same way on every platform.
      linter.AddFile(fs::relative(entry.path(), root).generic_string(),
                     std::move(*content));
      ++files;
    }
  }
  if (files == 0) {
    std::fprintf(stderr,
                 "error: no .h/.cc/.cpp files under "
                 "%s/{src,tests,tools,bench,examples}\n",
                 root.c_str());
    return 2;
  }

  const std::vector<lint::Finding> findings = linter.Run();
  std::printf("%s", lint::FormatText(findings).c_str());

  size_t errors = 0, warnings = 0;
  for (const lint::Finding& f : findings) {
    (f.severity == lint::Severity::kError ? errors : warnings) += 1;
  }
  std::printf("sgcl_lint: %zu file(s), %zu error(s), %zu warning(s)\n", files,
              errors, warnings);

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 2;
    }
    out << lint::FormatJson(findings);
  }

  if (fail_on == "none") return 0;
  if (fail_on == "error") return errors > 0 ? 1 : 0;
  return errors + warnings > 0 ? 1 : 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
