// Domain scenario: assemble a Self* message pipeline from XML configuration,
// run detection over the whole application (framework + XML + transport),
// and show the per-method report — the xml2C* workflow of the paper's C++
// evaluation, end to end on the public API.
//
//   $ ./examples/selfstar_pipeline
#include <iostream>

#include "fatomic/fatomic.hpp"
#include "subjects/net/transport.hpp"
#include "subjects/selfstar/selfstar.hpp"
#include "subjects/xml/xml.hpp"

using namespace subjects::selfstar;

namespace {

void pipeline_workload() {
  subjects::xml::XmlDocument config;
  config.parse(
      "<config>"
      "<component kind=\"tag\" arg=\"wire/\"/>"
      "<component kind=\"filter\" arg=\"noise\"/>"
      "<component kind=\"uppercase\"/>"
      "<component kind=\"collector\"/>"
      "</config>");

  ComponentFactory factory;
  AdaptorChain chain;
  factory.assemble(config, chain);

  subjects::net::Transport transport;
  transport.open("sink");

  for (int i = 0; i < 10; ++i) {
    Message m{"msg" + std::to_string(i),
              i % 3 == 0 ? "noise burst" : "signal " + std::to_string(i), 0};
    if (chain.process(m)) transport.send("sink", m.payload);
  }
  while (transport.channel("sink").pending() > 0) transport.recv("sink");
}

}  // namespace

int main() {
  std::cout << "running the pipeline once (uninstrumented):\n";
  pipeline_workload();
  std::cout << "  ok\n\n";

  std::cout << "injection campaign over the whole pipeline...\n";
  fatomic::detect::Experiment exp(pipeline_workload);
  auto campaign = exp.run();
  auto cls = fatomic::detect::classify(campaign);

  fatomic::report::AppResult result;
  result.name = "pipeline";
  result.language = "C++";
  result.campaign = std::move(campaign);
  result.classification = cls;
  std::cout << fatomic::report::method_details(result) << '\n';

  auto shares = fatomic::report::call_shares(result);
  std::cout << "call-weighted: " << shares.atomic << "% atomic, "
            << shares.pure << "% pure non-atomic (assembly-time only)\n\n";

  std::cout << "verifying the masked pipeline...\n";
  fatomic::Config config;
  config.mask(fatomic::mask::wrap_pure(cls));
  auto verified = fatomic::mask::verify_masked_full(pipeline_workload, config);
  const auto remaining = verified.classification.nonatomic_names();
  std::cout << "  non-atomic methods after masking: " << remaining.size()
            << " (expect 0)\n";
  return remaining.empty() ? 0 : 1;
}
