#include "data/io.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "chem/smiles.h"
#include "common/number_text.h"

namespace sqvae::data {

bool save_csv(const Dataset& dataset, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  std::string line;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    line.clear();
    for (std::size_t c = 0; c < dataset.num_features(); ++c) {
      if (c) line += ',';
      number_text::append(&line, dataset.samples(r, c));
    }
    line += '\n';
    f << line;
  }
  return static_cast<bool>(f);
}

namespace {
void set_error(CsvError* error, std::size_t line, std::string message) {
  if (error != nullptr) {
    error->line = line;
    error->message = std::move(message);
  }
}
}  // namespace

std::optional<Dataset> load_csv(const std::string& path, CsvError* error) {
  std::ifstream f(path);
  if (!f) {
    set_error(error, 0, "cannot open file: " + path);
    return std::nullopt;
  }
  std::vector<std::vector<double>> rows;
  std::string line;
  std::size_t line_number = 0;
  std::size_t width = 0;
  while (std::getline(f, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<double> row;
    std::stringstream ls(line);
    std::string field;
    while (std::getline(ls, field, ',')) {
      // The codec is locale-independent (a comma-decimal LC_NUMERIC
      // locale cannot misparse "1.5") and tells out-of-range fields apart
      // from syntax errors. Non-finite fields are rejected.
      const char* begin = field.data();
      const char* end = field.data() + field.size();
      while (begin < end &&
             std::isspace(static_cast<unsigned char>(*begin))) {
        ++begin;
      }
      while (end > begin &&
             std::isspace(static_cast<unsigned char>(end[-1]))) {
        --end;
      }
      double v = 0.0;
      const number_text::Error e = number_text::parse(
          std::string_view(begin, static_cast<std::size_t>(end - begin)), &v);
      if (e != number_text::Error::kNone) {
        set_error(error, line_number,
                  std::string(number_text::describe(e)) + ": '" + field + "'");
        return std::nullopt;
      }
      row.push_back(v);
    }
    if (row.empty()) {
      set_error(error, line_number, "empty row");
      return std::nullopt;
    }
    if (width == 0) {
      width = row.size();
    } else if (row.size() != width) {
      set_error(error, line_number,
                "row has " + std::to_string(row.size()) +
                    " fields, expected " + std::to_string(width));
      return std::nullopt;
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    set_error(error, 0, "file contains no samples");
    return std::nullopt;
  }
  Matrix samples(rows.size(), width);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < width; ++c) samples(r, c) = rows[r][c];
  }
  return Dataset{std::move(samples)};
}

SaveSmilesResult save_smiles(const std::vector<chem::Molecule>& molecules,
                             const std::string& path) {
  SaveSmilesResult result;
  std::ofstream f(path);
  if (!f) return result;
  for (std::size_t i = 0; i < molecules.size(); ++i) {
    const auto smiles = chem::to_smiles(molecules[i]);
    if (!smiles || smiles->empty()) {
      result.skipped.push_back(i);
      continue;
    }
    f << *smiles << '\n';
    ++result.written;
  }
  result.io_ok = static_cast<bool>(f);
  return result;
}

std::optional<std::vector<chem::Molecule>> load_smiles(const std::string& path,
                                                       CsvError* error) {
  std::ifstream f(path);
  if (!f) {
    set_error(error, 0, "cannot open file: " + path);
    return std::nullopt;
  }
  std::vector<chem::Molecule> out;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(f, line)) {
    ++line_number;
    // Trim trailing whitespace/CR.
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back()))) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    const auto mol = chem::from_smiles(line);
    if (!mol) {
      set_error(error, line_number, "unparseable SMILES: '" + line + "'");
      return std::nullopt;
    }
    out.push_back(*mol);
  }
  return out;
}

}  // namespace sqvae::data
