#include "analysis/analysis_memo.h"

namespace boosting::analysis {

AnalysisMemo::AnalysisMemo(const ioa::System& sys)
    : sys_(sys), transitions_(sys, slotCanon_) {}

}  // namespace boosting::analysis
