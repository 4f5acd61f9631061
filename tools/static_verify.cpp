// Shape-class verifier CLI — certifies every registered kernel (plus
// the dense GEMM / softmax entry points) over the builtin shape
// classes, per architecture preset, by running each at the corners of
// every class under all four sanitizer tools (gpusim/verify/
// verifier.hpp).  Prints each refuted or unknown verdict and a
// one-line tally.
//
//   static_verify [--arch=all|NAME]
//
// Exit 0: every verdict proved.  Exit 1: at least one refuted or
// unknown verdict.  Exit 2: bad usage / unknown preset.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "vsparse/gpusim/arch.hpp"
#include "vsparse/gpusim/verify/verifier.hpp"

namespace {

using namespace vsparse;

int run(int argc, char** argv) {
  std::string arch_spec = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--arch=", 7) == 0) {
      arch_spec = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "static_verify: unknown flag %s\n"
                   "usage: static_verify [--arch=all|NAME]\n",
                   argv[i]);
      return 2;
    }
  }

  std::vector<gpusim::DeviceConfig> archs;
  if (arch_spec == "all") {
    for (const gpusim::ArchPreset& preset : gpusim::arch_presets()) {
      archs.push_back(preset.make());
    }
  } else {
    const gpusim::ArchPreset* preset = gpusim::find_arch_preset(arch_spec);
    if (preset == nullptr) {
      std::fprintf(stderr, "static_verify: unknown preset \"%s\" (%s)\n",
                   arch_spec.c_str(), gpusim::arch_preset_names().c_str());
      return 2;
    }
    archs.push_back(preset->make());
  }

  const std::vector<verify::CertEntry> entries =
      verify::certify(verify::verification_targets(),
                      verify::builtin_shape_classes(), archs);

  int proved = 0, refuted = 0, unknown = 0;
  for (const verify::CertEntry& entry : entries) {
    const verify::Verdict& v = entry.verdict;
    switch (v.kind) {
      case verify::VerdictKind::kProved:
        ++proved;
        break;
      case verify::VerdictKind::kRefuted:
        ++refuted;
        std::fprintf(stderr,
                     "static_verify: REFUTED %s over %s on %s at %s: %s "
                     "(counterexample %s)\n",
                     entry.kernel.c_str(), entry.cls.name.c_str(),
                     entry.arch.c_str(), v.site.c_str(), v.detail.c_str(),
                     v.counterexample.str().c_str());
        break;
      case verify::VerdictKind::kUnknown:
        ++unknown;
        std::fprintf(stderr, "static_verify: UNKNOWN %s over %s on %s (%s)\n",
                     entry.kernel.c_str(), entry.cls.name.c_str(),
                     entry.arch.c_str(), v.detail.c_str());
        break;
    }
  }

  std::printf(
      "static_verify: %d proved, %d refuted, %d unknown across %zu "
      "preset(s)\n",
      proved, refuted, unknown, archs.size());
  return refuted == 0 && unknown == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
