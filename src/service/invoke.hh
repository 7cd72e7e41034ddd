/**
 * @file
 * The `POST /invoke` wire format (DESIGN.md §14): the body decoder and
 * the response writer.
 *
 * The decoder walks the body once with telemetry::JsonReader and
 * appends every cell straight to the flat row buffer Model::invoke
 * takes; it builds no Json value per row or per cell. It answers
 * exactly what parsing the body into a tree and checking the tree
 * would: the checks run after the whole document has parsed, in the
 * order JSON syntax, object body, `model` string, model lookup,
 * non-empty `inputs`, then the first bad row.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "service/model.hh"

namespace mithra::service
{

/** What the model lookup answers for a body's `model` id. */
struct InvokeTarget
{
    /** 200 when the model serves; otherwise the answer's status. */
    int status = 200;
    std::string error;
    /** The served model's row width (valid when status is 200). */
    std::size_t width = 0;
};

using ModelLookup = std::function<InvokeTarget(const std::string &id)>;

/** A decoded `/invoke` body: rows to decide, or the error to answer. */
struct InvokeRequest
{
    /** 200 when `cells` holds `rows` rows of the model's width. */
    int status = 200;
    std::string error;
    std::size_t rows = 0;
    std::vector<float> cells;
};

/**
 * Decode and check one `/invoke` body. `lookup` runs once, only after
 * the body has parsed as an object with a `model` string. Each cell
 * converts as the tree path does: to double (an integer token through
 * int64), then to float.
 */
InvokeRequest decodeInvoke(std::string_view body, const ModelLookup &lookup);

/**
 * The 200 body: byte for byte
 * `Json{certificate, decisions, model}.dump(1) + "\n"`.
 */
std::string encodeInvoke(const std::string &model,
                         const InvokeOutcome &outcome);

} // namespace mithra::service
