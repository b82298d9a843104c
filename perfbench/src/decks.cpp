#include "decks.hpp"

#include <stdexcept>

#include "bench.hpp"
#include "circuit/writer.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/opamp741.hpp"

namespace pb {

namespace {

void fill_from_text(Deck& d) {
  const auto parsed = awe::circuit::parse_deck_string(d.text);
  d.symbols = parsed.symbol_elements;
  d.input = parsed.input_source;
  d.output = parsed.output_node;
  for (const auto& s : d.symbols)
    d.nominal.push_back(parsed.netlist.elements()[*parsed.netlist.find_element(s)].value);
}

}  // namespace

Deck make_deck_741(const std::string& dir) {
  using awe::circuits::Opamp741Circuit;
  auto amp = awe::circuits::make_opamp741();
  awe::circuit::ParsedDeck src;
  src.netlist = amp.netlist;
  src.title = "linearized 741";
  src.symbol_elements = {Opamp741Circuit::kSymbolGout, Opamp741Circuit::kSymbolCcomp};
  src.input_source = Opamp741Circuit::kInput;
  src.output_node = Opamp741Circuit::kOutputNode;
  Deck d;
  d.name = "opamp741";
  d.text = awe::circuit::deck_to_string(src);

  // Known defect (not fixed here): write_deck emits the conductance
  // gout_q14 as the resistor rgout_q14 but keeps ".symbol gout_q14", so the
  // written deck fails to build with "unknown symbolic element".  Detect
  // it and point the directive at the renamed element.
  const std::string bad = ".symbol " + std::string(Opamp741Circuit::kSymbolGout);
  const auto at = d.text.find(bad);
  if (at != std::string::npos && d.text.find("rgout_q14") != std::string::npos) {
    d.note = "circuit::write_deck renames gout_q14 to rgout_q14 but still emits "
             "'.symbol gout_q14'; the benchmark rewrites the directive";
    d.text.replace(at, bad.size(), ".symbol rgout_q14");
  }
  d.forward.order = 2;
  d.gradient.order = 2;
  d.gradient.with_gradients = true;
  fill_from_text(d);
  if (d.symbols != std::vector<std::string>{"rgout_q14", "c_comp"})
    throw std::runtime_error("741 deck: unexpected symbols");
  const auto parsed = awe::circuit::parse_deck_string(d.text);
  for (const auto& e : parsed.netlist.elements()) {
    const bool rc = e.kind == awe::circuit::ElementKind::kResistor ||
                    e.kind == awe::circuit::ElementKind::kCapacitor;
    if (rc && e.name != "rgout_q14" && e.name != "c_comp") d.editable.push_back(e.name);
  }
  d.path = dir + "/opamp741.sp";
  write_file(d.path, d.text);
  return d;
}

Deck make_deck_coupled(const std::string& dir) {
  using awe::circuits::CoupledLinesCircuit;
  auto c = awe::circuits::make_coupled_lines();
  awe::circuit::ParsedDeck src;
  src.netlist = c.netlist;
  src.title = "coupled lines 2x1000";
  src.symbol_elements = {"rdrv1", "cload2", "cload1", "rdrv2"};
  src.input_source = CoupledLinesCircuit::kInput;
  src.output_node = CoupledLinesCircuit::kCrosstalkOutput;
  Deck d;
  d.name = "coupled";
  d.text = awe::circuit::deck_to_string(src);
  d.forward.order = 3;
  d.gradient.order = 3;
  d.gradient.with_gradients = true;
  fill_from_text(d);
  // Edits touch segment resistors, ground capacitors and coupling
  // capacitors (never the symbols): every edit dirties one cell.
  for (const auto& e : c.netlist.elements()) {
    const std::string& n = e.name;
    if (n.rfind("r1_", 0) == 0 || n.rfind("r2_", 0) == 0 || n.rfind("cg", 0) == 0 ||
        n.rfind("cc_", 0) == 0)
      d.editable.push_back(n);
  }
  d.path = dir + "/coupled.sp";
  write_file(d.path, d.text);
  return d;
}

}  // namespace pb
