// servebench: the driver binary behind run.py. See README.md.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "commands.h"
#include "vsj/fault/fault.h"
#include "vsj/obs/obs.h"
#include "vsj/util/cpu.h"

namespace servebench {

bool Flags::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "servebench: expected '--flag value' at '" << name << "'\n";
      return false;
    }
    values_[name.substr(2)] = argv[i + 1];
  }
  return true;
}

std::string Flags::Get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

uint64_t Flags::GetU64(const std::string& name, uint64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

int RunHost() {
  std::printf(
      "{\"simd\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"vsj_metrics\":%s,\"vsj_fault\":%s}\n",
      vsj::SimdLevelName(vsj::ActiveSimdLevel()), __VERSION__,
      SERVEBENCH_BUILD_TYPE, VSJ_METRICS_COMPILED ? "true" : "false",
      VSJ_FAULT_COMPILED ? "true" : "false");
  return 0;
}

}  // namespace servebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: servebench prepare|load|layers|host [--flag value]...\n";
    return 2;
  }
  const std::string command = argv[1];
  servebench::Flags flags;
  if (!flags.Parse(argc, argv, 2)) return 2;
  if (command == "prepare") return servebench::RunPrepare(flags);
  if (command == "load") return servebench::RunLoad(flags);
  if (command == "layers") return servebench::RunLayers(flags);
  if (command == "host") return servebench::RunHost();
  std::cerr << "servebench: unknown command '" << command << "'\n";
  return 2;
}
