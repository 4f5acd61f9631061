// Command-line handling shared by the examples.  Each example reads a
// few positional arguments; these helpers reject any it cannot use
// before work starts, and `run_example` turns every exception (a
// rejected argument, an unreadable file, a kernel's own precondition)
// into one stderr line and exit status 2, the bench drivers' usage
// error code, instead of an abort.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

namespace examples {

/// argv[i] as a positive int, or `fallback` when the argument is absent.
inline int positive_arg(int argc, char** argv, int i, const char* name,
                        int fallback) {
  if (i >= argc) return fallback;
  char* end = nullptr;
  const long x = std::strtol(argv[i], &end, 10);
  if (end == argv[i] || *end != '\0' || x <= 0 || x > INT_MAX) {
    throw std::invalid_argument(std::string(name) +
                                " must be a positive integer, got \"" +
                                argv[i] + "\"");
  }
  return static_cast<int>(x);
}

/// argv[i] as a CVS vector length V in {1, 2, 4, 8}.
inline int v_arg(int argc, char** argv, int i, int fallback) {
  const int v = positive_arg(argc, argv, i, "V", fallback);
  if (v != 1 && v != 2 && v != 4 && v != 8) {
    throw std::invalid_argument("V must be 1, 2, 4 or 8, got " +
                                std::to_string(v));
  }
  return v;
}

/// argv[i] as a sparsity (fraction of zeros) in [0, 1).
inline double sparsity_arg(int argc, char** argv, int i, double fallback) {
  if (i >= argc) return fallback;
  char* end = nullptr;
  const double s = std::strtod(argv[i], &end);
  if (end == argv[i] || *end != '\0' || !(s >= 0.0 && s < 1.0)) {
    throw std::invalid_argument(
        std::string("sparsity must be a number in [0, 1), got \"") +
        argv[i] + "\"");
  }
  return s;
}

/// Runs `body` and returns its exit status; an exception becomes one
/// "name: what" line on stderr and status 2.
template <class Body>
int run_example(const char* name, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 2;
  }
}

}  // namespace examples
