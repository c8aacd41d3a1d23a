#include "obs/trace.h"

#include "obs/json.h"

namespace boosting::obs {

std::shared_ptr<TraceWriter> TraceWriter::open(const std::string& path,
                                               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return nullptr;
  }
  return std::make_shared<TraceWriter>(f);
}

TraceWriter::TraceWriter(std::FILE* f)
    : f_(f), start_(std::chrono::steady_clock::now()) {}

TraceWriter::~TraceWriter() {
  if (f_) std::fclose(f_);
}

void TraceWriter::event(std::string_view type,
                        std::initializer_list<Field> fields) {
  const auto tNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  std::lock_guard<std::mutex> lock(m_);
  std::fprintf(f_, "{\"ev\":%s,\"t_ns\":%lld", quoteJson(type).c_str(),
               static_cast<long long>(tNs));
  for (const Field& field : fields) {
    std::fprintf(f_, ",%s:", quoteJson(field.key).c_str());
    switch (field.kind) {
      case Field::Kind::Int:
        std::fprintf(f_, "%lld", static_cast<long long>(field.i));
        break;
      case Field::Kind::UInt:
        std::fprintf(f_, "%llu", static_cast<unsigned long long>(field.u));
        break;
      case Field::Kind::Double:
        std::fprintf(f_, "%.6g", field.d);
        break;
      case Field::Kind::Bool:
        std::fputs(field.b ? "true" : "false", f_);
        break;
      case Field::Kind::Str:
        std::fputs(quoteJson(field.s).c_str(), f_);
        break;
    }
  }
  std::fputs("}\n", f_);
  ++events_;
}

}  // namespace boosting::obs
