// Consensus from totally ordered broadcast (a failure-oblivious service).
//
// Each process bcasts its input through a single f-resilient totally
// ordered broadcast service (Section 5.2) and decides the first message it
// receives. Because the service's global compute task delivers each ordered
// message to EVERY endpoint's buffer atomically, all processes see the same
// first message, so agreement and validity hold; termination holds in fair
// executions with at most f failures (the service keeps delivering).
//
// This system solves f-resilient consensus and is the Theorem-9 analogue of
// the relay candidate: claimed at (f+1)-resilience, the adversary finds the
// usual termination counterexample by silencing the service -- showing the
// impossibility proof's machinery working verbatim on a service that is NOT
// an atomic object.
#pragma once

#include <memory>

#include "ioa/system.h"
#include "processes/process.h"
#include "services/canonical_general.h"

namespace boosting::processes {

class TOBConsensusProcess : public ProcessBase {
 public:
  TOBConsensusProcess(int endpoint, int tobServiceId);

  std::string name() const override;
  std::unique_ptr<ioa::AutomatonState> initialState() const override;
  ioa::Automaton::TaskStructure taskStructure() const override {
    ioa::Automaton::TaskStructure ts;
    ts.conformant = true;
    ts.mayInvoke = {serviceId_};
    return ts;
  }

 protected:
  ioa::Action chooseAction(const ProcessStateBase& s) const override;
  void onInit(ProcessStateBase& s) const override;
  void onRespond(ProcessStateBase& s, int serviceId,
                 const util::Value& resp) const override;
  void onLocal(ProcessStateBase& s, const ioa::Action& a) const override;

 private:
  int serviceId_;
};

struct TOBConsensusSpec {
  int processCount = 3;
  int serviceResilience = 0;  // f of the broadcast service
  services::DummyPolicy policy = services::DummyPolicy::PreferReal;
  int tobServiceId = 400;
};

std::unique_ptr<ioa::System> buildTOBConsensusSystem(
    const TOBConsensusSpec& spec);

}  // namespace boosting::processes
