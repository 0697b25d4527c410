#include "dsl/annotations.hpp"

namespace everest::dsl {

namespace {
std::string_view to_string(Locality locality) {
  switch (locality) {
    case Locality::kResident: return "resident";
    case Locality::kStreaming: return "streaming";
    case Locality::kDistributed: return "distributed";
  }
  return "?";
}
}  // namespace

void DataAnnotations::attach_to(ir::AttrMap& attrs) const {
  using ir::Attribute;
  if (volume_mb > 0.0) attrs["ev.volume_mb"] = Attribute::real(volume_mb);
  attrs["ev.locality"] = Attribute::string(std::string(to_string(locality)));
  if (confidential) attrs["ev.confidential"] = Attribute::boolean(true);
  if (integrity) attrs["ev.integrity"] = Attribute::boolean(true);
  if (!provenance.empty()) attrs["ev.provenance"] = Attribute::string(provenance);
}

DataAnnotations DataAnnotations::from_attrs(const ir::AttrMap& attrs) {
  DataAnnotations out;
  auto find = [&](const char* key) -> const ir::Attribute* {
    auto it = attrs.find(key);
    return it == attrs.end() ? nullptr : &it->second;
  };
  if (const auto* a = find("ev.volume_mb"); a && a->is_double()) {
    out.volume_mb = a->as_double();
  }
  if (const auto* a = find("ev.locality"); a && a->is_string()) {
    const std::string& s = a->as_string();
    if (s == "streaming") out.locality = Locality::kStreaming;
    else if (s == "distributed") out.locality = Locality::kDistributed;
  }
  if (const auto* a = find("ev.confidential"); a && a->is_bool()) {
    out.confidential = a->as_bool();
  }
  if (const auto* a = find("ev.integrity"); a && a->is_bool()) {
    out.integrity = a->as_bool();
  }
  if (const auto* a = find("ev.provenance"); a && a->is_string()) {
    out.provenance = a->as_string();
  }
  return out;
}

}  // namespace everest::dsl
