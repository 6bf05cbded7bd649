/**
 * @file
 * Plain-text table rendering for the benchmark harness.
 *
 * Every bench binary reproduces one table or figure from the paper; the
 * TextTable gives them a common, diff-friendly way to print the same
 * rows/series the paper reports.
 */

#ifndef IBS_STATS_TABLE_H
#define IBS_STATS_TABLE_H

#include <initializer_list>
#include <string>
#include <vector>

namespace ibs {

/** A simple column-aligned text table with an optional title. */
class TextTable
{
  public:
    explicit TextTable(std::string title = "");

    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a row of already-formatted cells. */
    void addRow(std::vector<std::string> row);

    /** Append a separator rule between row groups. */
    void addRule();

    /** Format helper: fixed-point double with the given precision. */
    static std::string num(double v, int precision = 3);

    /** Format helper: integer with no grouping. */
    static std::string num(uint64_t v);

    /** Render with aligned columns and a rule under the header. */
    std::string render() const;

    const std::string &title() const { return title_; }

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool rule = false;
    };

    std::string title_;
    std::vector<std::string> header_;
    std::vector<Row> rows_;
};

} // namespace ibs

#endif // IBS_STATS_TABLE_H
