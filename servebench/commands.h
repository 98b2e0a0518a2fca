// Subcommands of the servebench driver binary and their shared flag map.

#ifndef SERVEBENCH_COMMANDS_H_
#define SERVEBENCH_COMMANDS_H_

#include <cstdint>
#include <map>
#include <string>

namespace servebench {

/// "--name value" pairs from the command line.
class Flags {
 public:
  /// False (with a message on stderr) on a malformed command line.
  bool Parse(int argc, char** argv, int first);
  std::string Get(const std::string& name, const std::string& fallback) const;
  uint64_t GetU64(const std::string& name, uint64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Writes the snapshots and the exact ground truth of one scale:
///   prepare --scale full|tiny --out DIR
int RunPrepare(const Flags& flags);

/// Drives a running vsjoin_server and prints one JSON result line:
///   load --workload W --seed N --seconds S --port P --scale X
///        --truth FILE --ref-root DIR
int RunLoad(const Flags& flags);

/// Times each layer's public functions in-process and prints one JSON line:
///   layers --workload W --seed N --scale X --root DIR --batch-size B
int RunLayers(const Flags& flags);

/// Prints the build half of the provenance block as one JSON line.
int RunHost();

}  // namespace servebench

#endif  // SERVEBENCH_COMMANDS_H_
