/**
 * @file
 * Structured result reporting: a small table abstraction that can
 * render itself as an aligned text table, CSV, or JSON, so bench and
 * example output can be consumed by scripts as well as read by humans.
 */

#ifndef NOC_SIM_REPORT_HH
#define NOC_SIM_REPORT_HH

#include <cstdio>
#include <string>
#include <variant>
#include <vector>

namespace noc
{

/** One table cell: text, integer, or floating point. */
using ReportCell =
    std::variant<std::string, std::int64_t, double>;

/**
 * A named table of rows. Columns are declared up front; rows must
 * match the column count.
 */
class ReportTable
{
  public:
    ReportTable(std::string title, std::vector<std::string> columns);

    void addRow(std::vector<ReportCell> row);

    const std::string &title() const { return title_; }
    std::size_t numRows() const { return rows_.size(); }
    std::size_t numColumns() const { return columns_.size(); }
    const ReportCell &at(std::size_t row, std::size_t col) const;

    /** Render as an aligned, rule-separated text table. */
    std::string toText() const;

    /** Render as CSV (header + rows, RFC-4180-style quoting). */
    std::string toCsv() const;

    /** Render as a JSON object {title, columns, rows}. */
    std::string toJson() const;

    /** Write a rendering chosen by @p format ("text"|"csv"|"json"). */
    void write(std::FILE *out, const std::string &format) const;

    /** Convert one cell to its display string. */
    static std::string cellText(const ReportCell &cell);

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<ReportCell>> rows_;
};

/**
 * An ordered collection of ReportTables rendered as one artifact: a
 * titled text report, concatenated CSV sections, or a single JSON
 * object {"title", "tables": [...]}. Used by the telemetry demo and
 * other multi-table structured outputs.
 */
class ReportDocument
{
  public:
    explicit ReportDocument(std::string title) : title_(std::move(title))
    {
    }

    void add(ReportTable table) { tables_.push_back(std::move(table)); }

    const std::string &title() const { return title_; }
    const ReportTable &table(std::size_t i) const
    {
        return tables_.at(i);
    }

    std::string toText() const;
    std::string toCsv() const;
    std::string toJson() const;

    /** Write a rendering chosen by @p format ("text"|"csv"|"json"). */
    void write(std::FILE *out, const std::string &format) const;

  private:
    std::string title_;
    std::vector<ReportTable> tables_;
};

/** Escape a string for JSON output. */
std::string jsonEscape(const std::string &s);

/** Escape a CSV field (quote when needed). */
std::string csvEscape(const std::string &s);

} // namespace noc

#endif // NOC_SIM_REPORT_HH
