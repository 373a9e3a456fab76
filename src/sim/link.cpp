#include "sim/link.hpp"

namespace attain::sim {

SimTime idle_pipe_latency(const PipeConfig& config, std::size_t size_bytes) {
  return serialization_delay(size_bytes, config.bandwidth_bps) + config.propagation_delay;
}

}  // namespace attain::sim
