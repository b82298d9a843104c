// The benchmark's two decks, generated from the repository's circuit
// generators and written as deck text, so the library, the CLI and the
// daemon all start from the same netlist file.
#pragma once

#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"

namespace pb {

struct Deck {
  std::string name;
  std::string text;  ///< deck file contents (.symbol/.input/.output included)
  std::string path;  ///< where `text` was written, relative to the run directory
  std::vector<std::string> symbols;
  std::string input, output;
  awe::core::ModelOptions forward;   ///< the forward-evaluation model
  awe::core::ModelOptions gradient;  ///< the design-loop model (with gradients)
  std::vector<double> nominal;       ///< symbol values in the deck
  std::vector<std::string> editable; ///< non-symbol elements the design loop edits
  std::string note;                  ///< defect found while generating, if any
};

/// The linearized 741 (170 elements), symbols rgout_q14 and c_comp, order 2.
Deck make_deck_741(const std::string& dir);
/// Coupled lines, 2 x 1000 segments (5006 elements), symbols
/// rdrv1,cload2,cload1,rdrv2, cross-talk output, order 3.
Deck make_deck_coupled(const std::string& dir);

}  // namespace pb
