/**
 * @file
 * TextTable implementation.
 */

#include "stats/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ibs {

TextTable::TextTable(std::string title)
    : title_(std::move(title))
{
}

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back(Row{std::move(row), false});
}

void
TextTable::addRule()
{
    rows_.push_back(Row{{}, true});
}

std::string
TextTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
TextTable::num(uint64_t v)
{
    return std::to_string(v);
}

std::string
TextTable::render() const
{
    // Compute column widths over header and all rows.
    size_t ncols = header_.size();
    for (const auto &r : rows_)
        ncols = std::max(ncols, r.cells.size());

    std::vector<size_t> width(ncols, 0);
    auto grow = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i)
            width[i] = std::max(width[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        if (!r.rule)
            grow(r.cells);

    size_t total = 0;
    for (size_t w : width)
        total += w + 2;
    if (total >= 2)
        total -= 2;

    std::ostringstream os;
    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(width[i]))
               << cells[i];
            if (i + 1 < cells.size())
                os << "  ";
        }
        os << "\n";
    };

    if (!header_.empty()) {
        emit(header_);
        os << std::string(total, '-') << "\n";
    }
    for (const auto &r : rows_) {
        if (r.rule)
            os << std::string(total, '-') << "\n";
        else
            emit(r.cells);
    }
    return os.str();
}

} // namespace ibs
