// The one JSON string escaper of the tree: metrics files, trace lines and
// the analysis service's wire format all quote strings through it.
#pragma once

#include <string>
#include <string_view>

namespace boosting::obs {

// `s` as a JSON string token, quotes included, with all mandatory escapes
// (other control characters become \u00XX).
std::string quoteJson(std::string_view s);

}  // namespace boosting::obs
